"""Seeded simulation of the interacting particle system.

A run is addressed by (master seed, replicate index); each time step consumes
its own counter-based stream, so traces are reproducible byte for byte and
replicates stay independent under any execution order.  A run is its integer
count vectors: on a finite space the counts are a sufficient statistic, so
step_counts draws the next counts directly (binomial, then multinomial) at a
cost that does not depend on the population size.  Every martingale
bookkeeping quantity is evaluated from the counts by exact finite-space sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFunction, FlowConsistencyError
from .flow import FlowAnalytics, analyze, conditional_variance, step_phi
from .model import FeynmanKacModel, McKeanSpec, TestFunction, mixing_weights
from .rng import stream


@dataclass(frozen=True)
class RunConfig:
    """Simulation parameters.

    Attributes:
        n_particles: population size N >= 1.
        seed: master seed; replicate streams are derived from it.
        horizon: final time index (must not exceed the model horizon).
    """

    n_particles: int
    seed: int
    horizon: int


@dataclass(frozen=True)
class RunTrace:
    """Counts per time step of one realized run; everything else derives."""

    n_particles: int
    counts: list[np.ndarray]

    def empirical(self, n: int) -> np.ndarray:
        return self.counts[n] / self.n_particles


def step_counts(
    model: FeynmanKacModel,
    spec: McKeanSpec,
    counts: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the time-(n+1) counts from the time-n counts.

    Each of the counts[x] particles at x moves through its own kernel row
    with probability eps_n*G_n(x) and otherwise draws from the updated law of
    the empirical measure.  The draws are, in order: the own-row numbers per
    state, the resampled particles, and the own-row moves of the occupied
    rows.  The cost does not depend on the population size.
    """
    own = rng.binomial(counts, mixing_weights(model, spec, n))
    N = int(counts.sum())
    nxt = rng.multinomial(N - own.sum(), step_phi(model, counts / N, n))
    occ = own > 0
    if occ.any():  # skipping an empty multinomial leaves the stream unchanged
        nxt += rng.multinomial(own[occ], model.kernels[n][occ]).sum(axis=0)
    return nxt


def simulate(
    config: RunConfig,
    model: FeynmanKacModel,
    spec: McKeanSpec,
    replicate: int = 0,
) -> RunTrace:
    """Run one replicate to the configured horizon and record count vectors.

    The time-0 counts are multinomial from the initial law; step n -> n+1
    draws from the stream addressed (seed, replicate, n+1).
    """
    if config.n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {config.n_particles}")
    if config.horizon > model.horizon:
        raise ValueError(
            f"config horizon {config.horizon} exceeds model horizon {model.horizon}"
        )
    N = config.n_particles
    counts = [stream(config.seed, replicate, 0).multinomial(N, model.eta0)]
    for n in range(config.horizon):
        rng = stream(config.seed, replicate, n + 1)
        counts.append(step_counts(model, spec, counts[n], n, rng))
    return RunTrace(n_particles=N, counts=counts)


def sampling_error(
    model: FeynmanKacModel, mu, emp: np.ndarray, n: int, v: np.ndarray
) -> float:
    """Sampling error of the step into time n: realized minus predicted mean of v.

    emp is the time-n empirical measure and mu the measure the step starts
    from; at n = 0, mu is the initial law and is itself the prediction.
    """
    predicted = mu if n == 0 else step_phi(model, mu, n - 1)
    return float((emp - predicted) @ v)


def _starting_measures(trace: RunTrace, model: FeynmanKacModel):
    """(n, measure the step into n starts from) along a trace, from eta0."""
    yield 0, model.eta0
    for n in range(1, len(trace.counts)):
        yield n, trace.empirical(n - 1)


def martingale_increments(
    trace: RunTrace, model: FeynmanKacModel, spec: McKeanSpec, f: TestFunction
) -> np.ndarray:
    """Realized sampling-error increments along a trace."""
    return np.array(
        [
            sampling_error(model, mu, trace.empirical(n), n, f.values[n])
            for n, mu in _starting_measures(trace, model)
        ]
    )


def increasing_increments(
    trace: RunTrace, model: FeynmanKacModel, spec: McKeanSpec, f: TestFunction
) -> np.ndarray:
    """Increments of the realized increasing process along a trace."""
    return np.array(
        [
            conditional_variance(model, spec, mu, n, f.values[n])
            for n, mu in _starting_measures(trace, model)
        ]
    )


@dataclass(frozen=True)
class DoobSeries:
    """Per-index decomposition of the realized fluctuation field.

    a and m are the predictable and martingale parts of the empirical mean of
    the transported functions; b and l are their sqrt(N)-scaled counterparts
    entering the fluctuation field w.  residual_mean and residual_field are
    the worst per-index gaps of the two exact decompositions; both are pure
    floating-point error on every realized run.
    """

    a: np.ndarray
    m: np.ndarray
    b: np.ndarray
    l: np.ndarray
    w: np.ndarray
    residual_mean: float
    residual_field: float


def doob_terms(
    trace: RunTrace,
    flow: FlowAnalytics,
    model: FeynmanKacModel,
    f: TestFunction,
    n: int,
) -> DoobSeries:
    """Evaluate the predictable/martingale decompositions on a realized run.

    Requires flow analytics built for terminal index n.  All series are exact
    functions of the recorded empirical measures; no sampling is involved.
    """
    if flow.terminal != n:
        raise FlowConsistencyError(
            f"flow analytics must hold the transported family for terminal {n}"
        )
    N = trace.n_particles
    root_n = np.sqrt(N)
    fpn = flow.fpn
    emp = [trace.empirical(q) for q in range(n + 1)]

    a_inc = np.zeros(n + 1)
    m_inc = np.zeros(n + 1)
    b_inc = np.zeros(n + 1)
    m_inc[0] = float((emp[0] - flow.etas[0]) @ fpn[0])
    for q in range(1, n + 1):
        g = model.potentials[q - 1]
        mass_ratio = float(emp[q - 1] @ g) / float(flow.etas[q - 1] @ g)
        phi_emp = step_phi(model, emp[q - 1], q - 1)
        a_inc[q] = (1.0 - mass_ratio) * float(phi_emp @ fpn[q])
        m_inc[q] = float((emp[q] - phi_emp) @ fpn[q])
        b_inc[q] = root_n * (1.0 - mass_ratio) * float((phi_emp - flow.etas[q]) @ fpn[q])

    a = np.cumsum(a_inc)
    m = np.cumsum(m_inc)
    b = np.cumsum(b_inc)
    l = root_n * m
    w = np.array(
        [root_n * float((emp[p] - flow.etas[p]) @ fpn[p]) for p in range(n + 1)]
    )

    mean_series = np.array([float(emp[p] @ fpn[p]) for p in range(n + 1)])
    residual_mean = float(np.max(np.abs(mean_series - (a + m))))
    residual_field = float(np.max(np.abs(w - (b + l))))
    return DoobSeries(
        a=a, m=m, b=b, l=l, w=w,
        residual_mean=residual_mean,
        residual_field=residual_field,
    )


@dataclass(frozen=True)
class ReplicateStats:
    """Terminal statistics of one replicate and its per-step series.

    w_steps is the fluctuation field w_p and delta_c_steps the realized
    increasing-process increments, for p = 0..horizon.
    """

    replicate: int
    w: float
    l_terminal: float
    b_terminal: float
    c_total: float
    w_steps: tuple[float, ...]
    delta_c_steps: tuple[float, ...]
    residual_mean: float
    residual_field: float

    @property
    def delta_c_terminal(self) -> float:
        return self.delta_c_steps[-1]


def simulate_replicates(
    config: RunConfig,
    model: FeynmanKacModel,
    spec: McKeanSpec,
    f: TestFunction,
    n_reps: int,
    flow: FlowAnalytics | None = None,
    normalize: bool = False,
) -> list[ReplicateStats]:
    """Run independent replicates, in order, and collect their statistics.

    Deterministic for a fixed master seed: replicate r always uses the
    streams addressed (seed, r, step), so any replicate can be rerun alone
    with the same result.

    Args:
        flow: analytics for f with terminal index config.horizon; computed
            here when omitted.
        normalize: divide w and the decomposition terms by the limiting
            standard deviation (raises DegenerateFunction when it vanishes).
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    n = config.horizon
    if flow is None or flow.terminal != n:
        flow = analyze(model, spec, f, terminal=n)
    scale = 1.0
    if normalize:
        if flow.sigma_sq <= 0.0 or f.oscillation(n) == 0.0:
            raise DegenerateFunction(
                f"limiting variance at time {n} is zero; cannot normalize"
            )
        scale = 1.0 / np.sqrt(flow.sigma_sq)

    def one(replicate: int) -> ReplicateStats:
        trace = simulate(config, model, spec, replicate)
        dc = increasing_increments(trace, model, spec, f)
        doob = doob_terms(trace, flow, model, f, n)
        w_steps = tuple((scale * doob.w).tolist())
        return ReplicateStats(
            replicate=replicate,
            w=w_steps[n],
            l_terminal=float(scale * doob.l[n]),
            b_terminal=float(scale * doob.b[n]),
            c_total=float(dc.sum()),
            w_steps=w_steps,
            delta_c_steps=tuple(dc.tolist()),
            residual_mean=doob.residual_mean,
            residual_field=doob.residual_field,
        )

    return [one(r) for r in range(n_reps)]
