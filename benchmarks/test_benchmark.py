"""Self-tests of the benchmark: every check can fail, the tracer sees every
binding of a traced function, exact counts repeat across traced runs, and a
run refuses to start without the package sources.

    python3 -m pytest benchmarks/test_benchmark.py              # about 3 minutes
    python3 -m pytest benchmarks/test_benchmark.py -k "not repeat"  # seconds
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GRID = workloads.N_GRID


def verify_report(distances, reps=2000, window=(-0.65, -0.35)):
    """A report as cmd_verify writes it, consistent with its distances."""
    slope = float(np.polyfit(np.log(GRID), np.log(distances), 1)[0])
    passed = window[0] <= slope <= window[1]
    return 0 if passed else 1, {
        "n_grid": list(GRID), "distances": list(distances), "slope": slope,
        "slope_window": list(window), "n_reps": reps, "passed": passed,
    }


def verify_failures(rc, report, reps=2000):
    tally = checks.Tally()
    checks.check_verify(tally, rc, report, GRID, reps)
    assert tally.attempted == checks.VERIFY_CHECKS
    return tally.failures


PASSING = [0.22, 0.118, 0.056, 0.0305]  # slope about -0.48
FLAT = [0.2228, 0.1284, 0.08, 0.0773]   # slope about -0.26


def test_verify_accepts_passing_report():
    assert verify_failures(*verify_report(PASSING)) == []


def _with(report, **changes):
    return {**report, **changes}


@pytest.mark.parametrize(
    "plant",
    [
        lambda rc, r: (rc, _with(r, passed=False)),
        lambda rc, r: (1, r),
        lambda rc, r: (rc, _with(r, slope=r["slope"] * (1 + 1e-8))),
        lambda rc, r: (rc, _with(r, n_reps=r["n_reps"] // 2)),
        lambda rc, r: (rc, _with(r, n_grid=r["n_grid"][:3])),
        lambda rc, r: verify_report(FLAT),
    ],
    ids=["passed-false", "exit-1", "slope-not-fit", "reps", "grid", "verdict-failed"],
)
def test_verify_rejects_planted(plant):
    rc, report = plant(*verify_report(PASSING))
    assert verify_failures(rc, report)


def oracle_report(reference) -> dict:
    """An oracle report whose values are exactly the reference."""
    def table(upper):
        n = int((np.sqrt(8 * upper.size + 1) - 1) / 2)
        full = np.full((n, n), np.nan)
        full[np.triu_indices(n)] = upper
        return [[None if np.isnan(x) else float(x) for x in row] for row in full]

    return {
        "sigma_sq": float(reference["sigma_sq"][0]),
        "delta_c": reference["delta_c"].tolist(),
        "b": reference["b"].tolist(),
        "betas": table(reference["betas"]),
        "ratios": table(reference["ratios"]),
    }


MIXING_OK = types.SimpleNamespace(r_check=True, b_check=True, a3_check=True)


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference()


def oracle_failures(report, reference, mixing=MIXING_OK):
    tally = checks.Tally()
    checks.check_oracle(tally, report, mixing, reference)
    assert tally.attempted == checks.oracle_checks(reference)
    return tally.failures


def test_oracle_accepts_reference(reference):
    assert oracle_failures(oracle_report(reference), reference) == []


def _scale(values, index, factor):
    values[index] *= factor


@pytest.mark.parametrize(
    "plant",
    [
        lambda r: _scale(r["b"], 150, 1 + 1e-8),
        lambda r: r.update(sigma_sq=r["sigma_sq"] * (1 + 1e-8)),
        lambda r: _scale(r["delta_c"], -1, 1 + 1e-8),
        lambda r: _scale(r["betas"][0], 10, 1 + 1e-8),
        lambda r: _scale(r["ratios"][3], 200, 1 + 1e-8),
        lambda r: r["betas"].pop(),
    ],
    ids=["b", "sigma_sq", "delta_c", "betas", "ratios", "betas-row-missing"],
)
def test_oracle_rejects_planted(plant, reference):
    report = oracle_report(reference)
    plant(report)
    failures = oracle_failures(report, reference)
    assert failures
    if "missing" not in failures[0] and "shape" not in failures[0]:
        assert len(failures) == 1


@pytest.mark.parametrize("name", ["r_check", "b_check", "a3_check"])
def test_oracle_rejects_failed_mixing_check(name, reference):
    mixing = types.SimpleNamespace(**{**vars(MIXING_OK), name: False})
    assert len(oracle_failures(oracle_report(reference), reference, mixing)) == 1


def simulate_csv(residuals) -> str:
    lines = ["# tool = fkbench 0.1.0", "replicate_id,N,n,W,L_terminal,C_N,doob_residual"]
    lines += [f"{i},1000,8,0.1,0.1,0.2,{r!r}" for i, r in enumerate(residuals)]
    return "\n".join(lines) + "\n"


def simulate_failures(rc, text, reps=200):
    tally = checks.Tally()
    checks.check_simulate(tally, rc, text, reps)
    assert tally.attempted == checks.simulate_checks(reps)
    return tally.failures


def test_simulate_accepts_small_residuals():
    assert simulate_failures(0, simulate_csv([0.0] * 199 + [1e-16])) == []


def test_simulate_rejects_planted():
    assert len(simulate_failures(0, simulate_csv([0.0] * 199 + [1e-8]))) == 1
    assert len(simulate_failures(0, simulate_csv([0.0] * 199))) == 2  # row count, last row
    assert len(simulate_failures(1, simulate_csv([0.0] * 200))) == 1


def test_tracer_wraps_every_binding_and_restores():
    import fkbench.engine
    import fkbench.lab
    import fkbench.rng

    original = fkbench.rng.stream
    with Tracer():
        assert fkbench.rng.stream is not original
        assert fkbench.engine.stream is fkbench.rng.stream
        assert fkbench.lab.stream is fkbench.rng.stream
    assert fkbench.rng.stream is original and fkbench.engine.stream is original


def test_tracer_counts_and_nesting():
    import fkbench.engine
    from fkbench import zoo

    entry = zoo.build("ring_walk", d=4, horizon=3)
    config = fkbench.engine.RunConfig(n_particles=10, seed=5, horizon=3)
    with Tracer() as tracer:
        fkbench.engine.simulate(config, entry.model, entry.spec)
    stats = tracer.stats()
    assert stats["engine.simulate"].calls == 1
    assert stats["rng.stream"].calls == 4  # one per time step
    assert stats["flow.mckean_kernel"].calls == 3
    assert tracer.counts["rng.draws"] == 40
    assert tracer.counts["engine.particle_steps"] == 40
    children = sum(stats[n].s for n in ("rng.stream", "rng.categorical", "rng.categorical_rows",
                                        "flow.mckean_kernel"))
    sim = stats["engine.simulate"]
    assert 0 <= sim.self_s < sim.s
    assert sim.self_s == pytest.approx(sim.s - children, abs=1e-9)


EXACT_COUNTS = (
    "rng.stream.calls", "rng.draws", "flow.mckean_kernel.calls",
    "flow.dobrushin_beta.calls", "flow.qbar_matrices", "engine.particle_steps",
)


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_exact_counts_repeat_across_traced_runs(name):
    counts = []
    for _ in range(2):
        out = run_benchmark(HERE.parent, "--workload", name, "--seed", "3",
                            "--seconds", "0", "--trace", "1")
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"], out.stderr
        counts.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_benchmark(tmp_path, "--workload", "hmm_rate", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
