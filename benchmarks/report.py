"""Run every benchmark workload, each in its own process, and print the metrics.

    python3 benchmarks/report.py                 # end-to-end metrics
    python3 benchmarks/report.py --trace 1       # per-layer metrics

Each workload runs through run.py at its own default seed.  Every metric is
printed with its unit, followed by failed_share: the failed correctness
checks divided by the checks attempted.  Exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    all_correct = True
    for i, workload in enumerate(w["name"] for w in spec["workloads"]):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 2
        env_line, result_line = out.stdout.strip().splitlines()[-2:]
        if i == 0:
            print(f"environment: {json.dumps(json.loads(env_line)['environment'])}")
        result = json.loads(result_line)
        all_correct &= result["correct"]
        print(workload)
        for name, metric in result["metrics"].items():
            print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
        share = result["failed"] / result["attempted"]
        print(f"  {'failed_share':36s} {share:>16.6g} ({result['failed']}/{result['attempted']} checks)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
