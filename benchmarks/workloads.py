"""The benchmark's workloads: user-facing fkbench commands, run in-process.

Each workload calls ``fkbench.cli.main`` once per iteration, from one serial
process, with the command's standard output captured in memory.  wall_s is
the time from that call to its return; for ring_oracle it also includes the
``bounds.mixing_bounds`` check on the oracle's tables.  Calls go through
module attributes (``fkbench.cli.main``, ``fkbench.bounds.mixing_bounds``) so
that the tracer sees them when it is installed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time
import types
from dataclasses import dataclass, field

import numpy as np

import fkbench.bounds
import fkbench.cli
from fkbench import zoo

import checks


def call_cli(argv: list[str]) -> tuple[float, int, str]:
    """Seconds taken, exit code and captured standard output of one command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = fkbench.cli.main(argv)
    return time.perf_counter() - start, rc, out.getvalue()


@dataclass(frozen=True)
class Workload:
    """One fkbench command line, the zoo model it uses and its checks."""

    name: str
    zoo_name: str
    zoo_params: dict = field(default_factory=dict)
    default_seed: int = 1

    def build(self) -> zoo.ZooEntry:
        return zoo.build(self.zoo_name, **self.zoo_params)

    def zoo_args(self) -> list[str]:
        args = ["--zoo", self.zoo_name]
        if self.zoo_params:
            args += ["--zoo-params", json.dumps(self.zoo_params)]
        return args

    def n_checks(self) -> int:
        raise NotImplementedError

    def run(self, entry: zoo.ZooEntry, seed: int, tally: checks.Tally) -> float:
        """Run once, record the checks in tally and return wall_s."""
        raise NotImplementedError


@dataclass(frozen=True)
class VerifyRate(Workload):
    """``fkbench verify clt`` with the default N grid 100-6400 and n_boot 1000."""

    reps: int = 2000

    def n_checks(self) -> int:
        return checks.VERIFY_CHECKS

    def run(self, entry, seed, tally):
        argv = ["verify", "clt", *self.zoo_args(), "--reps", str(self.reps), "--seed", str(seed)]
        wall, rc, text = call_cli(argv)
        checks.check_verify(tally, rc, json.loads(text), N_GRID, self.reps)
        return wall


# Just below the ring's measured 8-step minorization constant 1/6435.
RING_RHO = 1.554e-4


@dataclass(frozen=True)
class RingOracle(Workload):
    """``fkbench oracle`` on the ring, then mixing_bounds on its tables.

    The oracle is deterministic, so the seed does not enter this workload.
    """

    @functools.cached_property
    def reference(self) -> dict[str, np.ndarray]:
        return checks.load_reference()

    def n_checks(self) -> int:
        return checks.oracle_checks(self.reference)

    def run(self, entry, seed, tally):
        wall, rc, text = call_cli(["oracle", *self.zoo_args()])
        report = json.loads(text)
        tables = types.SimpleNamespace(
            betas=np.array(report["betas"], dtype=float),
            ratios=np.array(report["ratios"], dtype=float),
        )
        start = time.perf_counter()
        mixing = fkbench.bounds.mixing_bounds(
            8, 2.0, RING_RHO, entry.model.horizon, model=entry.model, flow=tables
        )
        wall += time.perf_counter() - start
        checks.check_oracle(tally, report, mixing, self.reference)
        return wall


@dataclass(frozen=True)
class PathSimulate(Workload):
    """``fkbench simulate --check-doob --record-steps`` on the path-space model."""

    n_particles: int = 1000
    reps: int = 200

    def n_checks(self) -> int:
        return checks.simulate_checks(self.reps)

    def run(self, entry, seed, tally):
        argv = [
            "simulate", *self.zoo_args(), "--N", str(self.n_particles),
            "--reps", str(self.reps), "--seed", str(seed), "--check-doob", "--record-steps",
        ]
        wall, rc, text = call_cli(argv)
        checks.check_simulate(tally, rc, text, self.reps)
        return wall


N_GRID = (100, 400, 1600, 6400)  # the verify clt default

WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance-suite size: with 500 replicates the verdict fails.
        VerifyRate("hmm_rate", "binary_hmm", reps=2000),
        RingOracle("ring_oracle", "ring_walk", {"d": 16, "horizon": 300}),
        PathSimulate("path_simulate", "path_genealogy", {"horizon": 8}, default_seed=7),
    )
}
