"""Statistical verification experiments.

Each experiment pits Monte Carlo estimates from the particle engine against
an exact constant from the flow analytics, and every pass/fail decision
carries an explicit sampling-error allowance.  Every experiment on a model
runs at the model's horizon, the one terminal time n, and with the model's
own McKean weights; truncate(model, n) picks an earlier terminal time.
Distances to the Gaussian are exact suprema over ECDF jump points; nothing
is evaluated on a grid.  Every report is a plain frozen dataclass,
serialized as it stands.  Only the two functions that use scipy import it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import a3_constant, burkholder_d
from .engine import simulate_replicates
from .errors import (
    ConfigError,
    DegenerateFunction,
    InsufficientReplicates,
    OscillationTooLarge,
    QuadratureFailure,
)
from .flow import analyze, concentration_b, contraction_tables, limiting_variance
from .model import FeynmanKacModel, TestFunction, integer, make_function, make_model, real
from .rng import derive_seed

DKW_SCALE = 0.5  # ECDF noise allowance is DKW_SCALE / sqrt(n_samples)
SLOPE_WINDOW = (-0.65, -0.35)  # the rate verdict passes with its slope inside
N_GRID = (100, 400, 1600, 6400)  # the rate verdict's population sizes
EPS_GRID_POINTS = 8
MOMENT_ORDERS = (1, 2, 3, 4, 5, 6)  # the moment verdicts' orders p


def _sample(values) -> np.ndarray:
    """values as a nonempty, finite 1-D float array; anything else is a ConfigError."""
    try:
        v = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("sample values must be numeric") from None
    if v.ndim != 1:
        raise ConfigError(f"sample values must be 1-D, got shape {v.shape}")
    if v.size < 1:
        raise ConfigError("need at least one sample value")
    if not np.all(np.isfinite(v)):
        raise ConfigError("sample values must be finite")
    return v


def kolmogorov_distance(values) -> float:
    """Exact sup distance between the sample ECDF and the standard normal CDF.

    The supremum over the real line is attained at a jump point, where the
    ECDF must be compared from both sides:
    max_i max(i/R - Phi(x_i), Phi(x_i) - (i-1)/R).  values must be a
    nonempty, finite 1-D sample; anything else is a ConfigError.
    """
    v = np.sort(_sample(values))
    from scipy.special import ndtr
    u, i = ndtr(v), np.arange(1, v.size + 1)
    return float(np.max(np.maximum(i / v.size - u, u - (i - 1) / v.size)))


@dataclass(frozen=True)
class RateReport:
    """Fitted convergence rate of the Gaussian-distance over a grid of N."""

    n_grid: tuple[int, ...]
    distances: tuple[float, ...]
    slope: float
    intercept: float
    slope_window: tuple[float, float]
    n_reps: int
    master_seed: int
    ecdf_allowance: float
    passed: bool


def clt_rate_experiment(
    model: FeynmanKacModel,
    f: TestFunction,
    n_reps: int,
    master_seed: int,
) -> RateReport:
    """Fit the decay rate of the normalized fluctuation's Gaussian distance.

    For each population size in N_GRID, n_reps terminal fluctuations are
    simulated, normalized by the exact limiting standard deviation, and
    reduced to the exact ECDF sup-distance from the standard normal.  The
    log-log slope over the grid is fitted by least squares; the verdict is
    the slope inside SLOPE_WINDOW.

    Raises:
        ConfigError: n_reps is not an integer >= 1, or master_seed not an integer.
        DegenerateFunction: the terminal function has zero variance.
        InsufficientReplicates: all measured distances sit at or below the
            ECDF noise scale, so no rate is identified.
    """
    flow = analyze(model, f)
    if integer(n_reps, "n_reps") < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n_reps}")
    master_seed = integer(master_seed, "master_seed")
    n = model.horizon
    if f.oscillation(n) == 0.0:
        raise DegenerateFunction(f"test function is constant at time {n}")
    if flow.sigma_sq <= 0.0:
        raise DegenerateFunction(f"limiting variance is zero at time {n}")
    sigma = math.sqrt(flow.sigma_sq)

    ecdf_allowance = DKW_SCALE / math.sqrt(n_reps)
    distances = []
    for k, N in enumerate(N_GRID):
        stats = simulate_replicates(flow, N, n_reps, derive_seed(master_seed, k))
        distances.append(kolmogorov_distance(stats.w[:, -1] / sigma))
    if min(distances) <= ecdf_allowance:
        raise InsufficientReplicates(
            f"min distance {min(distances):.4g} is within the ECDF noise scale "
            f"{ecdf_allowance:.4g}; increase n_reps"
        )

    log_n = np.log(np.asarray(N_GRID, dtype=float))
    slope, intercept = np.polyfit(log_n, np.log(distances), 1)
    return RateReport(
        n_grid=N_GRID,
        distances=tuple(distances),
        slope=float(slope),
        intercept=float(intercept),
        slope_window=SLOPE_WINDOW,
        n_reps=n_reps,
        master_seed=master_seed,
        ecdf_allowance=ecdf_allowance,
        passed=bool(SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]),
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


def _terminal_oscillation(f: TestFunction, n: int) -> float:
    """osc(f_n), which the concentration and moment bounds need in (0, 1]."""
    osc = f.oscillation(n)
    if osc > 1.0 + 1e-12:
        raise OscillationTooLarge(
            f"oscillation {osc} at time {n} exceeds 1; rescale the function"
        )
    if osc == 0.0:
        raise DegenerateFunction(f"test function is constant at time {n}")
    return osc


def default_eps_grid(n_particles: int, scale: float) -> np.ndarray:
    """Geometric grid of EPS_GRID_POINTS from 0.01 up to the stability cap.

    The cap keeps the largest possible exponent eps*sqrt(N)*scale at 20, past
    which a single extreme replicate dominates the empirical mean.
    """
    if integer(n_particles, "n_particles") < 1:
        raise ConfigError(f"n_particles must be >= 1, got {n_particles}")
    if real(scale, "scale") <= 0.0:
        raise ConfigError(f"scale must be positive, got {scale}")
    cap = 20.0 / (math.sqrt(n_particles) * scale)
    lo = min(0.01, cap / 2)
    return np.geomspace(lo, cap, EPS_GRID_POINTS)


def concentration_experiment(
    model: FeynmanKacModel,
    f: TestFunction,
    n_particles: int,
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

    The eps grid is default_eps_grid(N, scale), with the statistic's own
    scale: the oscillation of f_n for "eta", half its square for "delta_c".
    The bound is one-sided; a grid point passes when the empirical mean does
    not exceed the bound by more than three standard errors.

    Raises (before any replicate is drawn):
        ConfigError: an unknown statistic, or N not an integer >= 1.
        OscillationTooLarge: the terminal function's oscillation exceeds 1.
        DegenerateFunction: the terminal function is constant.
    """
    flow = analyze(model, f)
    if statistic not in ("eta", "delta_c"):
        raise ConfigError(f"unknown statistic {statistic!r}")
    n = model.horizon
    osc = _terminal_oscillation(f, n)
    stat_scale = osc if statistic == "eta" else osc**2 / 2.0
    eps_grid = tuple(float(e) for e in default_eps_grid(n_particles, stat_scale))
    root_n = math.sqrt(n_particles)

    tables = contraction_tables(model, flow.etas)
    stats = simulate_replicates(flow, n_particles, n_reps, master_seed)
    if statistic == "eta":
        values = np.abs(stats.w[:, -1])  # already sqrt(N)-scaled
        const = concentration_b(tables, n)
        def log_bound(eps):
            return math.log1p(eps * const / math.sqrt(2.0)) + (eps * const) ** 2 / 2.0
    else:
        limit_inc = limiting_variance(model, flow.etas, f.values[: n + 1])
        values = root_n * np.abs(stats.delta_c[:, -1] - limit_inc[n])
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


def _moment_table(
    abs_values: np.ndarray, scale: float, n_particles: int, master_seed: int
) -> MomentReport:
    """Table of (mean |V|^p)^(1/p) against d(p)^(1/p) * scale, p in MOMENT_ORDERS.

    The allowance is twice the delta-method standard error of the lhs,
    sd(|V|^p) / (sqrt(R) * p * mean(|V|^p)^(1 - 1/p)), relative to the rhs;
    it is 0 when R = 1 or every |V| is 0.
    """
    R = len(abs_values)
    lhs, rhs, allowances, ok = [], [], [], []
    for p in MOMENT_ORDERS:
        powers = abs_values**p
        mean = powers.mean()
        point = float(mean ** (1.0 / p))
        se = 0.0
        if R > 1 and mean > 0.0:
            se = float(powers.std(ddof=1) / (math.sqrt(R) * p * mean ** (1.0 - 1.0 / p)))
        right = float(burkholder_d(p) ** (1.0 / p) * scale)
        allow = 2.0 * se / right if right > 0 else 0.0
        lhs.append(point)
        rhs.append(right)
        allowances.append(allow)
        ok.append(point <= right * (1.0 + allow))
    return MomentReport(
        orders=MOMENT_ORDERS,
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        allowances=tuple(allowances),
        n_particles=n_particles,
        n_reps=R,
        master_seed=master_seed,
        passed=all(ok),
    )


def lp_moment_experiment(
    model: FeynmanKacModel,
    f: TestFunction,
    n_particles: int,
    n_reps: int,
    master_seed: int,
) -> MomentReport:
    """Scaled moments of the terminal empirical-mean error vs d(p) bounds.

    lhs(p) = (mean |W|^p)^(1/p) with W the sqrt(N)-scaled terminal error of
    f_n; rhs(p) = d(p)^(1/p) * b(n), for p in MOMENT_ORDERS.  The closed-form
    standard error of the lhs sets the allowance.  A terminal function whose
    oscillation exceeds 1 (OscillationTooLarge) or is 0 (DegenerateFunction)
    fails before any replicate is drawn.
    """
    flow = analyze(model, f)
    n = model.horizon
    _terminal_oscillation(f, n)
    b_n = concentration_b(contraction_tables(model, flow.etas), n)
    stats = simulate_replicates(flow, n_particles, n_reps, master_seed)
    return _moment_table(np.abs(stats.w[:, -1]), b_n, n_particles, master_seed)


def iid_moment_check(
    mu,
    h,
    n_particles: int,
    n_reps: int,
    master_seed: int,
) -> MomentReport:
    """Moment bounds for plain independent sampling from mu.

    The N independent variables of replicate r are the time-0 particles of
    the horizon-0 model with initial law mu (ConfigError if not numeric or
    ragged, BadInitialLaw if not a probability vector), drawn by
    simulate_replicates (ConfigError on bad sizes).  h is its time-0
    function, typed by analyze (ConfigError unless one finite value per
    state) before a constant h is a DegenerateFunction.  The check is
    sqrt(N) * (E|mean error|^p)^(1/p) <= d(p)^(1/p) * osc(h).
    """
    try:  # a ragged mu fails here, before make_model can type it
        ones = np.ones_like(mu, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"malformed iid law mu: {exc}") from exc
    flow = analyze(make_model(mu, [], [ones]), make_function([h]))
    osc = flow.f.oscillation(0)
    if osc == 0.0:  # all moments 0: no verdict
        raise DegenerateFunction("iid h is constant")
    stats = simulate_replicates(flow, n_particles, n_reps, master_seed)
    return _moment_table(np.abs(stats.w[:, -1]), osc, n_particles, master_seed)


def normal_cf(mean: float = 0.0, sd: float = 1.0):
    """Characteristic function of a normal distribution, as a callable.

    mean and sd must be finite reals and sd > 0 (ConfigError otherwise).
    """
    mean, sd = real(mean, "mean"), real(sd, "sd")
    if sd <= 0:
        raise ConfigError(f"sd must be > 0, got {sd}")

    def cf(x: float) -> complex:
        return np.exp(1j * mean * x - 0.5 * (sd * x) ** 2)

    return cf


def empirical_cf(samples):
    """Characteristic function of the empirical measure of a nonempty, finite 1-D sample."""
    s = _sample(samples)

    def cf(x: float) -> complex:
        return complex(np.exp(1j * x * s).mean())

    return cf


def smoothing_bound(cf1, cf2, a: float, density_sup: float) -> float:
    """Distribution-distance bound from characteristic functions.

    Integrates |cf1 - cf2| / x over (0, a) by adaptive quadrature (relative
    tolerance 1e-8, integrand extended continuously at 0) and adds the
    flat-density tail term 24 / (a*pi) * density_sup.
    """
    a, density_sup = real(a, "a"), real(density_sup, "density_sup")
    if a <= 0:
        raise ConfigError(f"a must be > 0, got {a}")
    if density_sup < 0:
        raise ConfigError(f"density_sup must be >= 0, got {density_sup}")

    def integrand(x: float) -> float:
        if x < 1e-12:
            x = 1e-12
        return abs(cf1(x) - cf2(x)) / x

    from scipy import integrate
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
    of X plus 4*E|XY| + 4*E|Y|, up to twice the ECDF noise scale.  The
    samples are 1-D, of one length (ConfigError otherwise).
    """
    try:
        x = np.asarray(x_samples, dtype=float)
        y = np.asarray(y_samples, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("paired samples must be numeric") from None
    if x.shape != y.shape:
        raise ConfigError(f"paired samples have shapes {x.shape} and {y.shape}")
    lhs = kolmogorov_distance(x + y)  # a sample that is not 1-D fails here
    rhs = (
        kolmogorov_distance(x)
        + 4.0 * float(np.abs(x * y).mean())
        + 4.0 * float(np.abs(y).mean())
    )
    allowance = 2.0 * DKW_SCALE / math.sqrt(len(x))
    return SteinReport(
        lhs=lhs, rhs=rhs, allowance=allowance, passed=lhs <= rhs + allowance
    )


def stein_experiment(
    model: FeynmanKacModel,
    f: TestFunction,
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
    n = model.horizon
    flow = analyze(model, f)  # validates f before f.oscillation reads it
    if flow.sigma_sq <= 0.0 or f.oscillation(n) == 0.0:
        raise DegenerateFunction(f"limiting variance at time {n} is zero")
    stats = simulate_replicates(flow, n_particles, n_reps, master_seed)
    scale = 1.0 / math.sqrt(flow.sigma_sq)
    return stein_check(scale * stats.l[:, -1], scale * stats.b[:, -1])
