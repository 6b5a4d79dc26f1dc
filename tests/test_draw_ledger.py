"""The draw ledger: sha256 digests of the counts that simulate draws.

Every other reproducibility test compares the engine with itself (a batch
row against the same replicate run alone, two runs at one seed).  This one
pins the drawn counts themselves, for replicates 0..49 at one seed and one
population size, on a panel of zoo entries.  NumPy keeps the Philox bit
stream stable across releases, but not the way Generator.binomial and
multinomial turn those bits into variates (NEP 19), so a numpy upgrade can
move every number the package reports; a failure names the entry and both
numpy versions.

A change that moves a draw on purpose records the new digest here and says
which entry moved and why.  The ledger records draws: it is not a tolerance.
"""

import hashlib

import numpy as np
import pytest

from fkbench.engine import RunConfig, simulate
from fkbench.zoo import build

N_PARTICLES = 100
SEED = 2005
REPLICATES = range(50)
NUMPY_RECORDED = "2.4.6"

MIXED_HMM = {"eps_scale": 0.5, "stay0": 0.9, "stay1": 0.9, "accuracy": 0.75, "obs_seed": 3}
# entry -> (zoo name, zoo params, sha256 of its counts)
LEDGER = {
    "binary_hmm": (
        "binary_hmm", {},
        "f9a6c75a4b48d3935d431486c687f3f791c766bb2a993cb1dba125e9a82135db",
    ),
    "binary_hmm mixed": (
        "binary_hmm", MIXED_HMM,
        "cd335ebb36a5f0bb6411c51a82e0cddbc536e42b6da4ef8112d9dd6d41214dfd",
    ),
    "ring_walk d 16": (
        "ring_walk", {"d": 16, "horizon": 20},
        "64f32d43e782b7c191e64dd5fa649ca7a725108fa7d839f0e8a501ec94f10d17",
    ),
    "path_genealogy": (
        "path_genealogy", {"horizon": 6},
        "041dfaceecf914a7de3c95f663515732d4077e33928f79e8b8e95b9983dcc777",
    ),
    "iid_reduction": (
        "iid_reduction", {},
        "f04247e5b6084f4794ff15ea0a4e4ca933944a9924cf7f2ebcbb3f3790b1d6ce",
    ),
}


def counts_digest(zoo_name: str, params: dict) -> str:
    """sha256 of every count array of the batch, in time order, as little-endian int64."""
    entry = build(zoo_name, **params)
    config = RunConfig(N_PARTICLES, SEED, entry.model.horizon)
    trace = simulate(config, entry.model, REPLICATES)
    digest = hashlib.sha256()
    for counts in trace.counts:
        digest.update(np.ascontiguousarray(counts, dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(LEDGER))
def test_drawn_counts_match_the_ledger(name):
    zoo_name, params, recorded = LEDGER[name]
    assert counts_digest(zoo_name, params) == recorded, (
        f"{name}: drawn counts moved; the ledger was recorded under numpy "
        f"{NUMPY_RECORDED}, this run uses numpy {np.__version__}"
    )
