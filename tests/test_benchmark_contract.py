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
breaks what the tracer reads fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


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
