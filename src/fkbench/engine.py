"""Seeded simulation of the interacting particle system.

A run is addressed by (master seed, replicate index); each time step consumes
its own counter-based stream, so traces are reproducible byte for byte and
replicates stay independent under any execution order.  A run is its integer
count vectors: on a finite space the counts are a sufficient statistic, so
step_counts draws the next counts directly (binomial, then multinomial) at a
cost that does not depend on the population size.  A RunTrace holds the
counts of R runs as (R, d) arrays, one row per replicate; a single run is
R = 1.  Every martingale bookkeeping quantity is evaluated from the counts by
exact finite-space sums, once per step for all R rows together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FlowConsistencyError
from .flow import FlowAnalytics, analyze, boltzmann_gibbs, conditional_variance, step_phi
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
    """Counts of R runs, counts[q] of shape (R, d_q); everything else derives."""

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
    """Run one replicate to the configured horizon: a trace with R = 1.

    The time-0 counts are multinomial from the initial law; step n -> n+1
    draws from the stream addressed (seed, replicate, n+1).
    """
    if config.n_particles < 1:
        raise ConfigError(f"n_particles must be >= 1, got {config.n_particles}")
    if config.horizon > model.horizon:
        raise ConfigError(
            f"config horizon {config.horizon} exceeds model horizon {model.horizon}"
        )
    N = config.n_particles
    counts = [stream(config.seed, replicate, 0).multinomial(N, model.eta0)]
    for n in range(config.horizon):
        rng = stream(config.seed, replicate, n + 1)
        counts.append(step_counts(model, spec, counts[n], n, rng))
    return RunTrace(n_particles=N, counts=[c[None, :] for c in counts])


def sampling_error(model: FeynmanKacModel, mu, emp: np.ndarray, n: int, v: np.ndarray):
    """Sampling error of the step into time n: realized minus predicted mean of v.

    emp is the time-n empirical measure and mu the measure the step starts
    from, each one measure or an (R, d) array of them; at n = 0, mu is the
    initial law and is itself the prediction.  Later predictions Phi(mu)(v)
    are read as boltzmann_gibbs(mu) @ (M v), without forming Phi(mu).
    """
    if n == 0:
        return (emp - mu) @ v
    return emp @ v - boltzmann_gibbs(model, mu, n - 1) @ (model.kernels[n - 1] @ v)


def increasing_increments(
    trace: RunTrace, model: FeynmanKacModel, spec: McKeanSpec, f: TestFunction
) -> np.ndarray:
    """Increments of the realized increasing process, (R, steps), one row per run.

    The step into time 0 starts from eta0, each later step from the runs'
    empirical measures one step earlier.
    """
    out = np.empty((len(trace.counts[0]), len(trace.counts)))
    start = model.eta0
    for q in range(len(trace.counts)):
        out[:, q] = conditional_variance(model, spec, start, q, f.values[q])
        start = trace.empirical(q)
    return out


@dataclass(frozen=True)
class DoobSeries:
    """Per-index decomposition of the realized fluctuation fields of R runs.

    w is the fluctuation field and b and l its predictable and martingale
    parts, each (R, n + 1).  residual_mean and residual_field, one per run,
    are the worst gaps of the exact decompositions of the empirical mean of
    the transported functions and of w: floating-point error on every run.
    """

    b: np.ndarray
    l: np.ndarray
    w: np.ndarray
    residual_mean: np.ndarray
    residual_field: np.ndarray


def doob_terms(
    trace: RunTrace,
    flow: FlowAnalytics,
    model: FeynmanKacModel,
    f: TestFunction,
    n: int,
) -> DoobSeries:
    """Evaluate the predictable/martingale decompositions on realized runs.

    Requires flow analytics built for terminal index n.  All series are exact
    functions of the recorded empirical measures; no sampling is involved.
    """
    if flow.terminal != n:
        raise FlowConsistencyError(
            f"flow analytics must hold the transported family for terminal {n}"
        )
    root_n = np.sqrt(trace.n_particles)
    fpn, etas = flow.fpn, flow.etas
    shape = (len(trace.counts[0]), n + 1)
    means, field, a_inc, m_inc, b_inc = (np.zeros(shape) for _ in range(5))
    start = etas[0]  # the step into time q starts from here
    for q in range(n + 1):
        emp = trace.empirical(q)
        means[:, q] = emp @ fpn[q]
        field[:, q] = (emp - etas[q]) @ fpn[q]
        m_inc[:, q] = sampling_error(model, start, emp, q, fpn[q])
        if q > 0:
            g = model.potentials[q - 1]
            mass_ratio = (start @ g) / float(etas[q - 1] @ g)
            predicted = means[:, q] - m_inc[:, q]  # Phi(start)(fpn[q])
            a_inc[:, q] = (1.0 - mass_ratio) * predicted
            b_inc[:, q] = root_n * (1.0 - mass_ratio) * (predicted - etas[q] @ fpn[q])
        start = emp

    a, m, b = (np.cumsum(inc, axis=1) for inc in (a_inc, m_inc, b_inc))
    l, w = root_n * m, root_n * field
    return DoobSeries(
        b=b, l=l, w=w,
        residual_mean=np.max(np.abs(means - (a + m)), axis=1),
        residual_field=np.max(np.abs(w - (b + l)), axis=1),
    )


@dataclass(frozen=True)
class ReplicateStats:
    """Statistics of R replicates, one row (or entry) per replicate.

    w_steps[r, p] is the fluctuation field and delta_c_steps[r, p] the realized
    increasing-process increment at p = 0..horizon; l_terminal, b_terminal and
    the residuals are DoobSeries' terminal l and b and its residuals.
    """

    w_steps: np.ndarray
    delta_c_steps: np.ndarray
    l_terminal: np.ndarray
    b_terminal: np.ndarray
    residual_mean: np.ndarray
    residual_field: np.ndarray

    @property
    def w(self) -> np.ndarray:
        return self.w_steps[:, -1]

    @property
    def c_total(self) -> np.ndarray:
        return self.delta_c_steps.sum(axis=1)

    @property
    def delta_c_terminal(self) -> np.ndarray:
        return self.delta_c_steps[:, -1]


def simulate_replicates(
    config: RunConfig,
    model: FeynmanKacModel,
    spec: McKeanSpec,
    f: TestFunction,
    n_reps: int,
    flow: FlowAnalytics | None = None,
) -> ReplicateStats:
    """Run independent replicates, in order, and evaluate them in one pass.

    Deterministic for a fixed master seed: replicate r always uses the
    streams addressed (seed, r, step), so any replicate can be rerun alone
    with the same result.  The counts of all replicates form one trace, and
    the bookkeeping runs once on it.

    Args:
        flow: analytics for f with terminal index config.horizon; computed
            here when omitted.
    """
    if n_reps < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n_reps}")
    n = config.horizon
    if flow is None or flow.terminal != n:
        flow = analyze(model, spec, f, terminal=n)
    dims = model.dims[: n + 1]
    trace = RunTrace(config.n_particles, [np.empty((n_reps, d), int) for d in dims])
    for r in range(n_reps):  # rows filled in place: no run's counts are held twice
        for rows, c in zip(trace.counts, simulate(config, model, spec, r).counts):
            rows[r] = c[0]
    doob = doob_terms(trace, flow, model, f, n)
    return ReplicateStats(
        w_steps=doob.w,
        delta_c_steps=increasing_increments(trace, model, spec, f),
        l_terminal=doob.l[:, n],
        b_terminal=doob.b[:, n],
        residual_mean=doob.residual_mean,
        residual_field=doob.residual_field,
    )
