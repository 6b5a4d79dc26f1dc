"""The benchmark's own output checks, run once per workload at its default seed.

Each workload in benchmarks/workloads.py runs its fkbench command once and
records its checks (benchmarks/checks.py) in a Tally; every check must be
attempted and pass.  Nothing under benchmarks/ is edited here.  The checks
read these fields of the command outputs:

- verify clt (hmm_rate): passed, slope, slope_window, distances, n_grid and
  n_reps of the JSON report, and the exit code;
- oracle (ring_oracle): sigma_sq, delta_c and b, and betas and ratios as
  square tables (null below the diagonal), against the recorded reference,
  plus the mixing_bounds checks on those tables;
- simulate (path_simulate): the CSV after its '#' lines, one row per
  replicate, and each row's doob_residual column.

The benchmark's tracer (benchmarks/tracer.py) wraps package functions by name
and its counters read their arguments, such as simulate's config.horizon and
config.n_particles; each workload also runs once under it, so a change that
breaks what the tracer reads fails here rather than in a benchmark run.  A
traced name that the package no longer defines is skipped by the tracer and
its metrics read 0; the set of such names is pinned here, so each lost
per-layer metric is a recorded choice rather than a silent one.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import checks  # noqa: E402
import workloads  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402

# Traced names with no function behind them, each with why it is gone.
MISSING_TRACED = {
    "rng.categorical",  # the count engine draws counts, not particles
    "rng.categorical_rows",
    "flow.semigroups",  # replaced by contraction_tables, which keeps no table of products
    "engine.increasing_increments",  # its time is inside engine.doob_terms
    "flow.mckean_kernel",  # the step law acts on functions; the d x d kernel is a test oracle
}


def test_missing_traced_names_are_pinned():
    missing = {
        f"{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fkbench.{layer}"), name, None))
    }
    assert missing == MISSING_TRACED


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_outputs_pass_their_checks(name):
    workload = workloads.WORKLOADS[name]
    tally = checks.Tally()
    workload.run(workload.build(), workload.default_seed, tally)
    assert tally.attempted == workload.n_checks()
    assert tally.failures == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_outputs_pass_their_checks_under_the_tracer(name):
    workload = workloads.WORKLOADS[name]
    tally = checks.Tally()
    with Tracer() as tracer:
        workload.run(workload.build(), workload.default_seed, tally)
    assert tally.attempted == workload.n_checks()
    assert tally.failures == []
    assert tracer.stats()["cli.main"].calls == 1
