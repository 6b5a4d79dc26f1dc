"""Counter-based, splittable random streams.

Every stream is addressed by (master seed, *path); the same address always
yields the same stream, independent of creation order, so replicates never
couple and any subset of an experiment can be reproduced in isolation.
The rule that keeps two kinds of address apart: replicate draws use
two-part paths (replicate, step), and experiment-level addresses (a grid
point's derived seed, a model builder's seed) use one-part paths, so no index
of either can reach the other.
"""

from __future__ import annotations

import numpy as np

_SEED_MASK = (1 << 64) - 1  # seeds are 64-bit unsigned


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the given address, backed by Philox."""
    ss = np.random.SeedSequence(int(master_seed) & _SEED_MASK, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *path: int) -> int:
    """A 64-bit sub-seed for a child experiment at the given address."""
    ss = np.random.SeedSequence(int(master_seed) & _SEED_MASK, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])

