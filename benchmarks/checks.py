"""Correctness checks on the outputs of the benchmark's fkbench commands.

Every check is one pass/fail entry in a Tally.  Simulation outputs are
checked only with properties of their law (verdicts, row counts,
decomposition residuals), never with a digest of the draws, so an engine
that samples the same law differently still passes.  Exact oracle values are
compared against references recorded from the oracle itself.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from fkbench import tolerances

REFERENCE = Path(__file__).with_name("ring_oracle_reference.npz")


def oracle_floors(reference: dict[str, np.ndarray]) -> dict[str, float]:
    """Each oracle quantity is compared relative to max(|reference|, floor).

    betas lie in [0, 1] and the delta_c increments sum to sigma_sq; entries
    far below those scales are rounding noise from differences of nearly
    equal rows, which any reordering of the matrix products changes.  The
    ratios (>= 1), b(n) (>= 2) and sigma_sq are compared purely relatively.
    """
    sigma_sq = float(reference["sigma_sq"][0])
    return {"sigma_sq": 0.0, "delta_c": sigma_sq, "b": 0.0, "betas": 1.0, "ratios": 0.0}


class Tally:
    """Counts checks attempted and keeps a description of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail_all(self, n: int, what: str) -> None:
        self.attempted += n
        self.failures.extend([what] * n)

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_verify(tally: Tally, rc: int, report: dict, n_grid, reps: int) -> None:
    """Checks on a ``verify clt`` report.

    The verdict passes: exit code 0, passed true and the slope inside the
    report's window.  The report is consistent: the slope is the
    least-squares fit of the reported distances, and the grid and replicate
    count are the ones requested.
    """
    tally.check(rc == 0, f"verify exit code {rc}")
    tally.check(report.get("passed") is True, f"verdict passed={report.get('passed')}")
    lo, hi = report.get("slope_window", (np.nan, np.nan))
    slope = report.get("slope", np.nan)
    tally.check(lo <= slope <= hi, f"slope {slope} outside [{lo}, {hi}]")
    distances = np.asarray(report.get("distances", [np.nan] * len(n_grid)), dtype=float)
    with np.errstate(all="ignore"):
        fit = np.polyfit(np.log(np.asarray(n_grid, dtype=float)), np.log(distances), 1)[0]
    tally.check(abs(slope - fit) <= tolerances.PRODUCT * abs(fit), f"slope {slope}, fit {fit}")
    tally.check(
        report.get("n_grid") == list(n_grid) and report.get("n_reps") == reps,
        f"grid {report.get('n_grid')} x {report.get('n_reps')}, requested {list(n_grid)} x {reps}",
    )


VERIFY_CHECKS = 5


def load_reference(path=REFERENCE) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _upper(table) -> np.ndarray:
    arr = np.array(table, dtype=float)  # null entries become nan
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        return np.array([])
    return arr[np.triu_indices(arr.shape[0])]


def oracle_values(report: dict) -> dict[str, np.ndarray]:
    """The checked quantities of an oracle report, as flat arrays."""
    return {
        "sigma_sq": np.atleast_1d(np.asarray(report["sigma_sq"], dtype=float)),
        "delta_c": np.asarray(report["delta_c"], dtype=float),
        "b": np.asarray(report["b"], dtype=float),
        "betas": _upper(report["betas"]),
        "ratios": _upper(report["ratios"]),
    }


def check_oracle(tally: Tally, report: dict, mixing, reference: dict[str, np.ndarray]) -> None:
    """Every reference value within tolerances.PRODUCT, and all mixing checks True."""
    values = oracle_values(report)
    for key, floor in oracle_floors(reference).items():
        ref = reference[key]
        got = values[key]
        if got.shape != ref.shape:
            tally.fail_all(ref.size, f"{key}: shape {got.shape}, reference {ref.shape}")
            continue
        ok = np.abs(got - ref) <= tolerances.PRODUCT * np.maximum(np.abs(ref), floor)
        for i in np.flatnonzero(~ok):
            tally.failures.append(f"{key}[{i}] = {got[i]!r}, reference {ref[i]!r}")
        tally.attempted += ref.size
    for name in ("r_check", "b_check", "a3_check"):
        tally.check(getattr(mixing, name) is True, f"mixing_bounds {name} is {getattr(mixing, name)}")


def oracle_checks(reference: dict[str, np.ndarray]) -> int:
    return sum(ref.size for ref in reference.values()) + 3


def check_simulate(tally: Tally, rc: int, text: str, reps: int) -> None:
    """Exit code 0, reps rows, and each row's doob_residual <= PRODUCT.

    A missing row counts as a failed residual check.
    """
    tally.check(rc == 0, f"simulate exit code {rc}")
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    tally.check(len(rows) == reps, f"{len(rows)} rows, expected {reps}")
    for i in range(reps):
        try:
            residual = float(rows[i]["doob_residual"])
        except (IndexError, KeyError, TypeError, ValueError):
            residual = np.nan
        tally.check(residual <= tolerances.PRODUCT, f"row {i}: doob_residual {residual}")


def simulate_checks(reps: int) -> int:
    return 2 + reps
