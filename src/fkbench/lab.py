"""Statistical verification experiments.

Each experiment pits Monte Carlo estimates from the particle engine against
an exact constant from the flow analytics, and every pass/fail decision
carries an explicit sampling-error allowance.  Distances to the Gaussian are
exact suprema over ECDF jump points; nothing is evaluated on a grid.  Every
report is a plain frozen dataclass, serialized as it stands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

from .bounds import a3_constant, burkholder_d
from .engine import RunConfig, simulate_replicates
from .errors import (
    ConfigError,
    DegenerateFunction,
    DegenerateSigma,
    InsufficientReplicates,
    OscillationTooLarge,
    QuadratureFailure,
)
from .flow import (
    analyze,
    concentration_b,
    contraction_tables,
    limiting_increasing_process,
)
from .model import FeynmanKacModel, McKeanSpec, TestFunction
from .rng import derive_seed, stream

DKW_SCALE = 0.5  # ECDF noise allowance is DKW_SCALE / sqrt(n_samples)


def kolmogorov_distance(values, sigma: float) -> float:
    """Exact sup distance between the sample ECDF and a centered normal CDF.

    The supremum over the real line is attained at a jump point, where the
    ECDF must be compared from both sides:
    max_i max(i/R - Phi(x_i/sigma), Phi(x_i/sigma) - (i-1)/R).
    """
    if sigma <= 0.0:
        raise DegenerateSigma(f"sigma must be > 0, got {sigma}")
    v = np.sort(np.asarray(values, dtype=float))
    if v.size < 1:
        raise ValueError("need at least one sample value")
    return _ks_from_sorted_uniforms(ndtr(v / sigma))


def _ks_from_sorted_uniforms(u: np.ndarray) -> float:
    """Jump-point sup distance between the ECDF of sorted u and the uniform CDF."""
    R = len(u)
    i = np.arange(1, R + 1)
    return float(np.max(np.maximum(i / R - u, u - (i - 1) / R)))


@dataclass(frozen=True)
class RateReport:
    """Fitted convergence rate of the Gaussian-distance over a grid of N."""

    n_grid: tuple[int, ...]
    distances: tuple[float, ...]
    slope: float
    intercept: float
    slope_ci: tuple[float, float]
    slope_window: tuple[float, float]
    n_reps: int
    master_seed: int
    ecdf_allowance: float
    passed: bool


def clt_rate_experiment(
    model: FeynmanKacModel,
    spec: McKeanSpec,
    f: TestFunction,
    n: int,
    n_grid,
    n_reps: int,
    master_seed: int,
    slope_window: tuple[float, float] = (-0.65, -0.35),
    n_boot: int = 1000,
) -> RateReport:
    """Fit the decay rate of the normalized fluctuation's Gaussian distance.

    For each population size, n_reps terminal fluctuations are simulated,
    normalized by the exact limiting standard deviation, and reduced to the
    exact ECDF sup-distance from the standard normal.  The log-log slope over
    the grid is fitted by least squares, with a percentile bootstrap band
    from resampling replicates within each grid point.

    Raises:
        ConfigError: n_reps < 1, or n_grid lacks two distinct sizes >= 1.
        DegenerateFunction: the terminal function has zero variance.
        InsufficientReplicates: all measured distances sit at or below the
            ECDF noise scale, so no rate is identified.
    """
    if n_reps < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n_reps}")
    if f.oscillation(n) == 0.0:
        raise DegenerateFunction(f"test function is constant at time {n}")
    n_grid = tuple(int(N) for N in n_grid)
    if len(set(n_grid)) < 2 or min(n_grid) < 1:
        raise ConfigError(f"n_grid needs two distinct sizes >= 1, got {n_grid}")
    flow = analyze(model, spec, f, terminal=n)
    if flow.sigma_sq <= 0.0:
        raise DegenerateFunction(f"limiting variance is zero at time {n}")
    sigma = math.sqrt(flow.sigma_sq)

    ecdf_allowance = DKW_SCALE / math.sqrt(n_reps)
    phis = []
    distances = []
    for k, N in enumerate(n_grid):
        config = RunConfig(n_particles=N, seed=derive_seed(master_seed, k), horizon=n)
        stats = simulate_replicates(config, model, spec, f, n_reps, flow=flow)
        values = np.sort(stats.w / sigma)
        distances.append(kolmogorov_distance(values, 1.0))
        phis.append(ndtr(values))
    if min(distances) <= ecdf_allowance:
        raise InsufficientReplicates(
            f"min distance {min(distances):.4g} is within the ECDF noise scale "
            f"{ecdf_allowance:.4g}; increase n_reps"
        )

    log_n = np.log(np.asarray(n_grid, dtype=float))
    slope, intercept = np.polyfit(log_n, np.log(distances), 1)

    # bootstrap: resampling normal-CDF values is equivalent to resampling the
    # sample itself, and avoids re-evaluating the normal CDF in the loop
    boot_rng = stream(master_seed, len(n_grid))
    boot_slopes = np.empty(n_boot)
    for bi in range(n_boot):
        ds = [
            _ks_from_sorted_uniforms(np.sort(boot_rng.choice(u, size=len(u))))
            for u in phis
        ]
        boot_slopes[bi] = np.polyfit(log_n, np.log(ds), 1)[0]
    ci = (
        float(np.percentile(boot_slopes, 2.5)),
        float(np.percentile(boot_slopes, 97.5)),
    )
    passed = bool(slope_window[0] <= slope <= slope_window[1])
    return RateReport(
        n_grid=n_grid,
        distances=tuple(distances),
        slope=float(slope),
        intercept=float(intercept),
        slope_ci=ci,
        slope_window=slope_window,
        n_reps=n_reps,
        master_seed=master_seed,
        ecdf_allowance=ecdf_allowance,
        passed=passed,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Empirical moment generating function against its analytic bound.

    bounds entries overflow to inf when the constant is large; log_bounds is
    always finite and is what the pass decision uses.
    """

    statistic: str
    eps_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    bounds: tuple[float, ...]
    log_bounds: tuple[float, ...]
    allowances: tuple[float, ...]
    constant: float
    n_particles: int
    n_reps: int
    master_seed: int
    passed: bool


def default_eps_grid(n_particles: int, scale: float, points: int = 8) -> np.ndarray:
    """Geometric grid from 0.01 up to the finite-sample stability cap.

    The cap keeps the largest possible exponent eps*sqrt(N)*scale at 20, past
    which a single extreme replicate dominates the empirical mean.
    """
    if n_particles < 1:
        raise ConfigError(f"n_particles must be >= 1, got {n_particles}")
    cap = 20.0 / (math.sqrt(n_particles) * scale)
    lo = min(0.01, cap / 2)
    return np.geomspace(lo, cap, points)


def concentration_experiment(
    model: FeynmanKacModel,
    spec: McKeanSpec,
    f: TestFunction,
    n: int,
    n_particles: int,
    eps_grid,
    n_reps: int,
    master_seed: int,
    statistic: str = "eta",
) -> ConcentrationReport:
    """Compare an empirical MGF with its analytic concentration bound.

    statistic "eta": V = sqrt(N)|empirical mean - flow mean| of f_n, bounded
    by (1 + eps*b/sqrt(2)) * exp((eps*b)^2 / 2) with the contraction constant
    b = b(n).  statistic "delta_c": V = sqrt(N)|realized - limiting| terminal
    increment of the increasing process, bounded by
    (1 + eps*a3) * exp(eps^2 * a3^2).

    The bound is one-sided; a grid point passes when the empirical mean does
    not exceed the bound by more than three standard errors.  The statistic
    and the grid are checked before any replicate is drawn.
    """
    if statistic not in ("eta", "delta_c"):
        raise ConfigError(f"unknown statistic {statistic!r}")
    osc = f.oscillation(n)
    if osc > 1.0 + 1e-12:
        raise OscillationTooLarge(
            f"oscillation {osc} at time {n} exceeds 1; rescale the function"
        )
    if n_particles < 1:
        raise ConfigError(f"n_particles must be >= 1, got {n_particles}")
    root_n = math.sqrt(n_particles)
    stat_scale = osc if statistic == "eta" else osc**2 / 2.0
    eps_grid = tuple(float(e) for e in eps_grid)
    if not eps_grid:
        raise ConfigError("eps_grid is empty")
    for eps in eps_grid:
        if not eps >= 0.0:
            raise ConfigError(f"eps={eps} must be >= 0")
        if eps * root_n * stat_scale > 20.0 + 1e-9:
            raise ConfigError(
                f"eps={eps} exceeds the stability cap 20/(sqrt(N)*scale); "
                f"shrink the grid"
            )

    flow = analyze(model, spec, f, terminal=n)
    tables = contraction_tables(model, flow.etas)
    config = RunConfig(n_particles=n_particles, seed=master_seed, horizon=n)
    stats = simulate_replicates(config, model, spec, f, n_reps, flow=flow)
    if statistic == "eta":
        values = np.abs(stats.w)  # already sqrt(N)-scaled
        const = concentration_b(tables, n)
        def log_bound(eps):
            return math.log1p(eps * const / math.sqrt(2.0)) + (eps * const) ** 2 / 2.0
    else:
        limit_inc = limiting_increasing_process(model, spec, flow.etas, f, n)
        values = root_n * np.abs(stats.delta_c_terminal - limit_inc[n])
        const = a3_constant(tables, n)
        def log_bound(eps):
            return math.log1p(eps * const) + (eps * const) ** 2

    # empirical values sit below exp(20) by the grid cap, but the analytic
    # side can overflow; the comparison is done in the log domain
    empirical, bounds_out, log_bounds, allowances, ok = [], [], [], [], []
    for eps in eps_grid:
        ev = np.exp(eps * values)
        mean = float(ev.mean())
        se = float(ev.std(ddof=1) / math.sqrt(n_reps)) if n_reps > 1 else 0.0
        log_bnd = float(log_bound(eps))
        bnd = math.exp(log_bnd) if log_bnd < 700.0 else math.inf
        allow = 3.0 * se / bnd if math.isfinite(bnd) else 0.0
        empirical.append(mean)
        bounds_out.append(bnd)
        log_bounds.append(log_bnd)
        allowances.append(allow)
        ok.append(math.log(mean) <= log_bnd + math.log1p(allow))
    return ConcentrationReport(
        statistic=statistic,
        eps_grid=eps_grid,
        empirical=tuple(empirical),
        bounds=tuple(bounds_out),
        log_bounds=tuple(log_bounds),
        allowances=tuple(allowances),
        constant=const,
        n_particles=n_particles,
        n_reps=n_reps,
        master_seed=master_seed,
        passed=all(ok),
    )


@dataclass(frozen=True)
class MomentReport:
    """Empirical scaled p-th moments against the analytic bounds."""

    orders: tuple[int, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    allowances: tuple[float, ...]
    n_particles: int
    n_reps: int
    master_seed: int
    passed: bool

    def rows(self):
        for p, left, right, allow in zip(
            self.orders, self.lhs, self.rhs, self.allowances
        ):
            yield p, left, right, allow, left <= right * (1.0 + allow)


def _check_p_max(p_max: int) -> None:
    if not 1 <= p_max <= 8:
        raise ConfigError(f"p_max must be in [1, 8] at desk scale, got {p_max}")


def _moment_table(
    abs_values: np.ndarray, scale: float, p_max: int, n_particles: int,
    master_seed: int, n_boot: int,
) -> MomentReport:
    """Bootstrap table of (mean |V|^p)^(1/p) against d(p)^(1/p) * scale."""
    orders = tuple(range(1, p_max + 1))
    boot_rng = stream(master_seed, 999)
    lhs, rhs, allowances, ok = [], [], [], []
    for p in orders:
        powers = abs_values**p
        point = float(powers.mean() ** (1.0 / p))
        boot = np.empty(n_boot)
        for bi in range(n_boot):
            boot[bi] = boot_rng.choice(powers, size=len(powers)).mean() ** (1.0 / p)
        se = float(boot.std(ddof=1))
        right = float(burkholder_d(p) ** (1.0 / p) * scale)
        allow = 2.0 * se / right if right > 0 else 0.0
        lhs.append(point)
        rhs.append(right)
        allowances.append(allow)
        ok.append(point <= right * (1.0 + allow))
    return MomentReport(
        orders=orders,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        allowances=tuple(allowances),
        n_particles=n_particles,
        n_reps=len(abs_values),
        master_seed=master_seed,
        passed=all(ok),
    )


def lp_moment_experiment(
    model: FeynmanKacModel,
    spec: McKeanSpec,
    f: TestFunction,
    n: int,
    n_particles: int,
    p_max: int,
    n_reps: int,
    master_seed: int,
    n_boot: int = 500,
) -> MomentReport:
    """Scaled moments of the terminal empirical-mean error vs d(p) bounds.

    lhs(p) = (mean |W|^p)^(1/p) with W the sqrt(N)-scaled terminal error of
    f_n; rhs(p) = d(p)^(1/p) * b(n).  A bootstrap standard error of the lhs
    sets the allowance.
    """
    _check_p_max(p_max)
    if f.oscillation(n) > 1.0 + 1e-12:
        raise OscillationTooLarge(
            f"oscillation {f.oscillation(n)} at time {n} exceeds 1"
        )
    flow = analyze(model, spec, f, terminal=n)
    b_n = concentration_b(contraction_tables(model, flow.etas), n)
    config = RunConfig(n_particles=n_particles, seed=master_seed, horizon=n)
    stats = simulate_replicates(config, model, spec, f, n_reps, flow=flow)
    return _moment_table(np.abs(stats.w), b_n, p_max, n_particles, master_seed, n_boot)


def iid_moment_check(
    mu,
    h,
    n_particles: int,
    p_max: int,
    n_reps: int,
    master_seed: int,
    n_boot: int = 500,
) -> MomentReport:
    """Moment bounds for plain independent sampling from mu.

    Draws the counts of N independent variables from mu (one multinomial per
    replicate), centers h under mu, and checks
    sqrt(N) * (E|mean error|^p)^(1/p) <= d(p)^(1/p) * osc(h).
    """
    _check_p_max(p_max)
    mu = np.asarray(mu, dtype=float)
    h = np.asarray(h, dtype=float)
    h = h - float(mu @ h)
    osc = float(h.max() - h.min())
    root_n = math.sqrt(n_particles)
    values = np.empty(n_reps)
    for r in range(n_reps):
        counts = stream(master_seed, r).multinomial(n_particles, mu)
        values[r] = root_n * abs(float(counts @ h) / n_particles)
    return _moment_table(values, osc, p_max, n_particles, master_seed, n_boot)


def normal_cf(mean: float = 0.0, sd: float = 1.0):
    """Characteristic function of a normal distribution, as a callable."""

    def cf(x: float) -> complex:
        return np.exp(1j * mean * x - 0.5 * (sd * x) ** 2)

    return cf


def empirical_cf(samples):
    """Characteristic function of the empirical measure of a sample."""
    s = np.asarray(samples, dtype=float)

    def cf(x: float) -> complex:
        return complex(np.exp(1j * x * s).mean())

    return cf


def smoothing_bound(cf1, cf2, a: float, density_sup: float) -> float:
    """Distribution-distance bound from characteristic functions.

    Integrates |cf1 - cf2| / x over (0, a) by adaptive quadrature (relative
    tolerance 1e-8, integrand extended continuously at 0) and adds the
    flat-density tail term 24 / (a*pi) * density_sup.
    """
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")

    def integrand(x: float) -> float:
        if x < 1e-12:
            x = 1e-12
        return abs(cf1(x) - cf2(x)) / x

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            integral, abserr = integrate.quad(
                integrand, 0.0, a, epsrel=1e-8, epsabs=1e-12, limit=200
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureFailure(f"quadrature did not converge: {exc}") from exc
    if not np.isfinite(integral):
        raise QuadratureFailure(f"quadrature returned {integral}")
    return (2.0 / math.pi) * integral + 24.0 / (a * math.pi) * density_sup


@dataclass(frozen=True)
class SteinReport:
    """Two sides of the sum-perturbation distance inequality."""

    lhs: float
    rhs: float
    allowance: float
    passed: bool


def stein_check(x_samples, y_samples) -> SteinReport:
    """Check the perturbation inequality on paired samples.

    The distance of X+Y from the standard normal must not exceed the distance
    of X plus 4*E|XY| + 4*E|Y|, up to twice the ECDF noise scale.
    """
    x = np.asarray(x_samples, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"paired samples have shapes {x.shape} and {y.shape}")
    R = len(x)
    lhs = kolmogorov_distance(x + y, 1.0)
    rhs = (
        kolmogorov_distance(x, 1.0)
        + 4.0 * float(np.abs(x * y).mean())
        + 4.0 * float(np.abs(y).mean())
    )
    allowance = 2.0 * DKW_SCALE / math.sqrt(R)
    return SteinReport(
        lhs=lhs, rhs=rhs, allowance=allowance, passed=lhs <= rhs + allowance
    )


def stein_experiment(
    model: FeynmanKacModel,
    spec: McKeanSpec,
    f: TestFunction,
    n: int,
    n_particles: int,
    n_reps: int,
    master_seed: int,
) -> SteinReport:
    """Perturbation inequality on the realized decomposition W = L + B.

    The terminal martingale part L and predictable part B of n_reps runs,
    each divided by the exact limiting standard deviation, are the paired
    samples of stein_check.

    Raises:
        DegenerateFunction: the terminal function has zero limiting variance.
    """
    flow = analyze(model, spec, f, terminal=n)
    if flow.sigma_sq <= 0.0 or f.oscillation(n) == 0.0:
        raise DegenerateFunction(f"limiting variance at time {n} is zero")
    config = RunConfig(n_particles=n_particles, seed=master_seed, horizon=n)
    stats = simulate_replicates(config, model, spec, f, n_reps, flow=flow)
    scale = 1.0 / math.sqrt(flow.sigma_sq)
    return stein_check(scale * stats.l_terminal, scale * stats.b_terminal)
