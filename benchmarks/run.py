"""Run one fkbench benchmark workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload hmm_rate --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is missing.  The
workload is repeated, serially and in this one process, as often as fits in
--seconds (at least once).  Set-up is measured in fresh interpreters first.

Standard output ends with two JSON lines: the environment of the run, then
the result ``{"correct", "attempted", "failed", "metrics"}``.  With
--trace 0 the metrics are the end-to-end ones (medians over iterations).
With --trace 1 every iteration runs twice, untraced and then traced, and the
metrics are the per-layer ones (medians over traced iterations); the spans of
the last traced iteration are written to .bench_trace/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
THREAD_VARS = (
    "FKBENCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Calls that cmd_simulate makes itself for --record-steps.
RECORD_STEPS = ("engine.simulate", "engine.doob_terms", "engine.increasing_increments")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    """Machine, versions and thread settings, as found before the run."""
    import fkbench
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fkbench": fkbench.__version__,
        "git_commit": _git_commit(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def measure_setup(workload) -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload.zoo_name,
             json.dumps(workload.zoo_params)]
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_iteration(workload, entry, seed, total) -> float:
    """One run of the workload; its checks are added to total.

    An exception fails every check of the iteration; the time to it is kept.
    """
    from checks import Tally

    tally = Tally()
    gc.collect()  # the previous iteration's garbage is not this one's cost
    start = time.perf_counter()
    try:
        wall = workload.run(entry, seed, tally)
    except Exception:
        wall = time.perf_counter() - start
        traceback.print_exc()
        tally = Tally()
        tally.fail_all(workload.n_checks(), f"{workload.name} raised")
    total.attempted += tally.attempted
    total.failures.extend(tally.failures)
    return wall


def metric_units(kind: str) -> dict[str, str]:
    """Name and unit of every metric of kind ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def layer_metrics(tracer, names) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, except trace.overhead_s."""
    stats = tracer.stats()

    def get(name, attr):
        st = stats.get(name)
        return getattr(st, attr) if st is not None else 0

    out = {}
    for metric in names:
        if metric in tracer.counts:
            out[metric] = tracer.counts[metric]
            continue
        name, _, attr = metric.rpartition(".")
        if attr in ("calls", "s", "self_s"):
            out[metric] = get(name, attr)
    out["cli.self_s"] = get("cli.main", "self_s")
    out["cli.record_steps_s"] = tracer.time_under(RECORD_STEPS, "cli.main")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fkbench" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no fkbench sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    os.environ.pop("FKBENCH_THREADS", None)  # workloads run with the default

    import checks
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"run.py: unknown workload {args.workload!r}; know {sorted(WORKLOADS)}\n")
        return 2
    seed = workload.default_seed if args.seed is None else args.seed

    units = metric_units("per_layer" if args.trace else "end_to_end")
    setup_s = None if args.trace else measure_setup(workload)
    entry = workload.build()
    total = checks.Tally()
    walls, traced_walls, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while True:
        walls.append(run_iteration(workload, entry, seed, total))
        if args.trace:
            with Tracer() as tracer:
                traced_walls.append(run_iteration(workload, entry, seed, total))
            layers.append(layer_metrics(tracer, units))
        # another iteration only if it should end within --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    if args.trace:
        values = {m: statistics.median(it[m] for it in layers) for m in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        trace_dir = ROOT / ".bench_trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{workload.name}-seed{seed}.csv")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for failure in total.failures[:20]:
        sys.stderr.write(f"check failed: {failure}\n")
    sys.stderr.write(
        f"{workload.name} seed={seed}: {len(walls)} iteration(s), "
        f"{total.failed}/{total.attempted} checks failed\n"
    )
    result = {
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(json.dumps({"environment": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
