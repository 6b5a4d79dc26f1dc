"""Every demo script runs to completion against the current API, and prints
what the output ledger recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_output_ledger import digest, moved

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo -> sha256 of its stdout (see test_output_ledger.py)
DEMO_DIGESTS = {
    "01_exact_flow_oracle": "b33ab2598a2d93c704351b9e756c322e0fe8dd8d636a0f322f6bf6165948a6d9",
    "02_particle_run_bookkeeping": "2bebd0b5ef489eca5618ab4de9b27ba44137188b3bf4361331eddedf6e7e49a9",
    "03_gaussian_rate": "08d21b84b645bca77059a3abe11384e2eef4381a0b3d391f25d8096089ef9111",
    "04_concentration_and_moments": "cda13b469f6be9235ddb002e2167dd4875c1d0e589405d6537cf5fdb37e31125",
    "05_smoothing_and_stein": "736dd514e024da1efb572ce99b7c894d97980227a68506c935f483ea1832ab2e",
    "06_path_space_genealogy": "70dfdff9b35ff58e6d728e64322d984d378db312d07fac655e5ce89e3d8a99d1",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert digest(out.stdout) == DEMO_DIGESTS.get(demo.stem), moved(demo.stem)
