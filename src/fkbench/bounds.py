"""Closed-form constants: moment constants, mixing bounds, kernel regularity.

These are the analytic upper bounds that the statistical experiments compare
against; everything is a small formula plus, where a model is supplied, a
direct enumeration check of its hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import ConfigError, HypothesisNotSatisfied
from .flow import ContractionTables, concentration_b
from .model import FeynmanKacModel, integer, real


def burkholder_d(p: int) -> float:
    """Moment constant d(p) for empirical measures of independent variables.

    d(2n) = (2n)!/n! * 2^-n and d(2n-1) = (2n-1)!/((n-1)!) / sqrt(n - 1/2)
    * 2^-(n-1/2), with the falling-factorial reading (m)_k = m!/(m-k)!.
    d(2) = 1 and d(4) = 3, matching the Gaussian moments.
    """
    if integer(p, "p") < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if p % 2 == 0:
        n = p // 2
        return math.perm(2 * n, n) * 2.0 ** (-n)
    n = (p + 1) // 2
    return math.perm(2 * n - 1, n) / math.sqrt(n - 0.5) * 2.0 ** (-(n - 0.5))


# Regularity masses of the constant-eps kernel family.  The kernel's one-step
# difference at two measures is controlled by a single point mass on the
# centered terminal function, so gamma = 0 and gamma' = 1.  The combined mass
# is the larger of the two and tilde = combined + 1 enters the constant a3.
GAMMA = 0.0
GAMMA_PRIME = 1.0
GAMMA_COMBINED = max(GAMMA, GAMMA_PRIME)
GAMMA_TILDE = GAMMA_COMBINED + 1.0


def a3_constant(tables: ContractionTables, n: int) -> float:
    """Exponential-continuity constant of the increasing-process increments.

    a3(n) = 4*sqrt(2)*tilde * max over q in {n, n-1} of
    sum_{p<=q} ratios[p,q]*betas[p,q], with tilde = GAMMA_TILDE; the inner
    sums are b(q)/2.
    """
    sums = [concentration_b(tables, q) / 2.0 for q in range(max(n - 1, 0), n + 1)]
    return 4.0 * math.sqrt(2.0) * GAMMA_TILDE * max(sums)


@dataclass(frozen=True)
class MixingBounds:
    """Closed-form bounds under an (m, r, rho) minorization hypothesis."""

    m: int
    r: float
    rho: float
    r_bound: float                 # bounds the mass ratio over an m-step window
    beta_bounds: np.ndarray | None # per-gap contraction bound, None if vacuous
    b_bound: float                 # bounds sup_n b(n)
    a3_bound: float                # bounds sup_n a3(n)
    r_check: bool | None = None    # numeric confirmations when a model is given
    b_check: bool | None = None
    a3_check: bool | None = None


def _window_kernel(model: FeynmanKacModel, n: int, m: int) -> np.ndarray:
    acc = model.kernels[n]
    for q in range(n + 1, n + m):
        acc = acc @ model.kernels[q]
    return acc


def check_minorization(model: FeynmanKacModel, m: int, rho: float) -> None:
    """Verify M_{n,n+m}(x, A) >= rho * M_{n,n+m}(y, A) by direct enumeration.

    On finite spaces it is enough to check the atoms: for every column z the
    smallest row entry must dominate rho times the largest.
    """
    for n in range(model.horizon - m + 1):
        window = _window_kernel(model, n, m)
        lo = window.min(axis=0)
        hi = window.max(axis=0)
        bad = lo + tol.ALGEBRA < rho * hi
        if np.any(bad):
            z = int(np.argmax(bad))
            raise HypothesisNotSatisfied(
                f"window [{n}, {n + m}] violates the rho={rho} minorization at "
                f"state {z}: min={lo[z]}, max={hi[z]}"
            )


def mixing_bounds(
    m: int,
    r: float,
    rho: float,
    n: int,
    model: FeynmanKacModel | None = None,
    flow: ContractionTables | None = None,
) -> MixingBounds:
    """Closed-form uniform bounds, optionally verified against a model.

    r_bound = r**m / rho, b_bound = 2*m*r**(2m-1) / rho**3 and
    a3_bound = 8*sqrt(2)*m*r**(2m-1)*tilde / rho**3, with tilde =
    GAMMA_TILDE.  The per-gap contraction bound
    (1 - r**(m-1)*rho**2)**floor(gap/m) is reported only when its base lies
    in (0, 1); it is never asserted.

    When a model is given, the window must fit its horizon (m <= H, else
    ConfigError) and the minorization hypothesis is checked by enumeration
    (raising HypothesisNotSatisfied on failure, also when the supplied r
    does not dominate the model's potential ratios).  When the
    model's contraction tables are given as well (flow: anything with betas
    and ratios, as from contraction_tables), the window ratios, b(n) and
    a3(n) are compared against the bounds.
    """
    m, n = integer(m, "m"), integer(n, "n")
    r, rho = real(r, "r"), real(rho, "rho")
    if m < 1 or n < 0 or r < 1.0 or not 0.0 < rho <= 1.0:
        raise ConfigError(f"need m >= 1, n >= 0, r >= 1, rho in (0, 1]; got {(m, n, r, rho)}")
    if model is not None and m > model.horizon:
        raise ConfigError(f"window m={m} exceeds the model's horizon {model.horizon}")
    r_bound = r**m / rho
    b_bound = 2.0 * m * r ** (2 * m - 1) / rho**3
    a3_bound = 8.0 * math.sqrt(2.0) * m * r ** (2 * m - 1) * GAMMA_TILDE / rho**3

    base = 1.0 - r ** (m - 1) * rho**2
    if 0.0 < base < 1.0:
        gaps = np.arange(n + 1)
        beta_bounds = base ** np.floor(gaps / m)
    else:
        beta_bounds = None

    r_check = b_check = a3_check = None
    if model is not None:
        pot_ratio = max(g.max() / g.min() for g in model.potentials)
        if pot_ratio > r + tol.ALGEBRA:
            raise HypothesisNotSatisfied(
                f"supplied r={r} is below the model's potential ratio {pot_ratio}"
            )
        check_minorization(model, m, rho)
        if flow is not None:
            H = model.horizon
            slack = 1.0 + tol.PRODUCT
            r_check = all(
                flow.ratios[p, p + m] <= r_bound * slack for p in range(H - m + 1)
            )
            b_check = all(
                concentration_b(flow, q) <= b_bound * slack for q in range(H + 1)
            )
            a3_check = all(
                a3_constant(flow, q) <= a3_bound * slack for q in range(H + 1)
            )
    return MixingBounds(
        m=m,
        r=r,
        rho=rho,
        r_bound=r_bound,
        beta_bounds=beta_bounds,
        b_bound=b_bound,
        a3_bound=a3_bound,
        r_check=r_check,
        b_check=b_check,
        a3_check=a3_check,
    )
