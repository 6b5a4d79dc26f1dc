"""Record the ring_oracle reference values from the current oracle.

    python3 benchmarks/record_reference.py

Writes ring_oracle_reference.npz next to this file: sigma_sq, delta_c, b and
the upper triangles (row-major) of the betas and ratios tables, exactly as
``fkbench oracle`` reports them.  Re-record only when the oracle's values are
meant to change; the benchmark's checks compare against this file.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    ring = workloads.WORKLOADS["ring_oracle"]
    _, rc, text = workloads.call_cli(["oracle", *ring.zoo_args()])
    if rc != 0:
        raise SystemExit(f"oracle exited with {rc}")
    np.savez_compressed(checks.REFERENCE, **checks.oracle_values(json.loads(text)))
    print(f"wrote {checks.REFERENCE}")


if __name__ == "__main__":
    main()
