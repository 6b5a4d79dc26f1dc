"""Seeded simulation of the interacting particle system.

A run is addressed by (master seed, replicate index); each time step consumes
its own counter-based stream, so traces are reproducible byte for byte and
replicates stay independent under any execution order.  A batch keys the
streams of all its rows for a step in one pass and reseats one generator to
each row in turn, so row r draws exactly what stream(seed, r, step) would.
A run is its integer count vectors, a sufficient statistic on a finite
space: step_counts draws the next counts directly (binomial, then
multinomial) at a cost free of N, with the own-row weights eps_n*G_n that
mixing_weights reads from the model (valid by construction, so not checked
here), and draws no binomial at a step whose weights are all 0.  A RunTrace
holds R runs as (R, d) count arrays, one row per replicate; the sampler
advances the batch a step at a time, and the bookkeeping evaluates it
once per step, each row summed in flow's one order (never @, which rounds a
row inside a batch differently than alone), so no row depends on the batch.
A trace records the model it ran on, whose horizon is the run's one
terminal time.  doob_terms is the one bookkeeping pass: from the
FlowAnalytics its caller made with analyze of that same model, it returns
the decompositions of the fluctuation field and the increasing process of
every run in one DoobSeries, which simulate_replicates returns for its batch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import FlowAnalytics, boltzmann_gibbs, conditional_variance, step_phi
from .model import FeynmanKacModel, integer, mixing_weights, truncate
from .rng import replicate_streams


@dataclass(frozen=True)
class RunConfig:
    """Simulation parameters, checked on construction (ConfigError).

    Attributes:
        n_particles: population size N >= 1.
        seed: master seed; replicate streams are derived from it.
        horizon: final time index; the run's model is truncate(model, horizon).
    """

    n_particles: int
    seed: int
    horizon: int

    def __post_init__(self):
        for name in ("n_particles", "seed", "horizon"):
            integer(getattr(self, name), name)
        if self.n_particles < 1:
            raise ConfigError(f"n_particles must be >= 1, got {self.n_particles}")


@dataclass(frozen=True)
class RunTrace:
    """R runs of model as counts, counts[q] of shape (R, d_q); the rest derives."""

    model: FeynmanKacModel
    n_particles: int
    counts: list[np.ndarray]

    def empirical(self, n: int) -> np.ndarray:
        return self.counts[n] / self.n_particles


def step_counts(
    model: FeynmanKacModel,
    counts: np.ndarray,
    n: int,
    rngs: Iterable[np.random.Generator],
) -> np.ndarray:
    """Draw the time-(n+1) counts of each row of counts with the row's own generator.

    Each of the counts[i, x] particles at x moves through its own kernel row
    with probability eps_n*G_n(x) and otherwise draws from the updated law of
    row i's empirical measure.  A row's draws are, in order: the own-row
    numbers per state, the resampled particles, and the own-row moves of the
    occupied rows.  The own-row numbers are not drawn when every weight is 0
    (eps_n = 0): a binomial with p = 0 (or n = 0, an empty state) is 0 and
    consumes nothing from the stream, so the skipped draws leave every row's
    stream and counts unchanged.  The cost does not depend on the population
    size.
    """
    weights = mixing_weights(model, n)
    sizes = counts.sum(axis=1)
    targets = step_phi(model, counts / sizes[:, None], n)
    nxt = np.empty((len(counts), model.dims[n + 1]), dtype=int)
    # plain int sizes: multinomial takes a Python int N faster than an np.int64
    if not weights.any():  # every particle resamples
        for row, N, target, rng in zip(nxt, sizes.tolist(), targets, rngs, strict=True):
            row[:] = rng.multinomial(N, target)
        return nxt
    for row, c, N, target, rng in zip(nxt, counts, sizes.tolist(), targets, rngs, strict=True):
        own = rng.binomial(c, weights)
        row[:] = rng.multinomial(N - int(own.sum()), target)
        occ = own > 0
        if occ.any():  # skipping an empty multinomial leaves the stream unchanged
            row += rng.multinomial(own[occ], model.kernels[n][occ]).sum(axis=0)
    return nxt


def simulate(
    config: RunConfig, model: FeynmanKacModel, replicates: Sequence[int] = (0,)
) -> RunTrace:
    """Run each listed replicate of truncate(model, config.horizon), one row each.

    Row i's time-0 counts are multinomial from the initial law, drawn from
    the stream addressed (seed, replicates[i], 0), and its step n -> n+1
    draws from the stream addressed (seed, replicates[i], n+1): any
    replicate r of a batch reruns alone as simulate(config, model, [r]).
    For each time, the rows' stream keys are computed in one pass and one
    generator is reseated to each row in turn (rng.replicate_streams).
    The replicates and the horizon are checked before any stream is keyed,
    and the trace records the truncated model it ran on.
    """
    replicates = [integer(r, "replicate") for r in replicates]
    if len(replicates) < 1 or min(replicates) < 0 or max(replicates) >= 1 << 64:
        raise ConfigError("replicates must list at least one index, each in [0, 2**64)")
    model = truncate(model, config.horizon)
    N, seed = config.n_particles, config.seed
    time0 = replicate_streams(seed, replicates, 0)
    counts = [np.array([rng.multinomial(N, model.eta0) for rng in time0])]
    for n in range(model.horizon):
        rngs = replicate_streams(seed, replicates, n + 1)
        counts.append(step_counts(model, counts[n], n, rngs))
    return RunTrace(model=model, n_particles=N, counts=counts)


def sampling_error(model: FeynmanKacModel, mu, emp: np.ndarray, n: int, v: np.ndarray):
    """Sampling error of the step into time n: realized minus predicted mean of v.

    emp is the time-n empirical measure and mu the measure the step starts
    from, each one measure or an (R, d) array of them; at n = 0, mu is the
    initial law and is itself the prediction.  Later predictions Phi(mu)(v)
    are read as boltzmann_gibbs(mu)(M v), without forming Phi(mu).
    """
    if n == 0:
        return ((emp - mu) * v).sum(-1)
    bg = boltzmann_gibbs(model, mu, n - 1)
    return (emp * v).sum(-1) - (bg * (model.kernels[n - 1] @ v)).sum(-1)


@dataclass(frozen=True)
class DoobSeries:
    """Per-index bookkeeping of the realized fluctuation fields of R runs.

    w is the fluctuation field and b and l its predictable and martingale
    parts, and delta_c the increments of the realized increasing process,
    each (R, H + 1) with H the model's horizon.  residual_mean and
    residual_field, one per run, are the worst gaps of the exact
    decompositions of the empirical mean of the transported functions and of
    w: floating-point error on every run.
    """

    b: np.ndarray
    l: np.ndarray
    w: np.ndarray
    delta_c: np.ndarray
    residual_mean: np.ndarray
    residual_field: np.ndarray


def doob_terms(trace: RunTrace, flow: FlowAnalytics) -> DoobSeries:
    """Evaluate the decompositions and the increasing process on realized runs.

    flow = analyze(trace.model, f): runs of any other model object are a
    ConfigError, even one of the same dimensions.  The series run over
    times 0..model.horizon.
    The step into time 0 starts from eta0, each later step from the runs'
    empirical measures one step earlier.  All series are exact functions of
    the recorded empirical measures and of flow; no sampling is involved.
    """
    if trace.model is not flow.model:
        raise ConfigError("the runs were drawn from another model than the flow's")
    model, f, n = flow.model, flow.f, flow.model.horizon
    root_n = np.sqrt(trace.n_particles)
    fpn, etas = flow.fpn, flow.etas
    shape = (len(trace.counts[0]), n + 1)
    means, field, a_inc, m_inc, b_inc, delta_c = (np.zeros(shape) for _ in range(6))
    start = etas[0]  # the step into time q starts from here
    for q in range(n + 1):
        emp = trace.empirical(q)
        means[:, q] = (emp * fpn[q]).sum(-1)
        field[:, q] = ((emp - etas[q]) * fpn[q]).sum(-1)
        m_inc[:, q] = sampling_error(model, start, emp, q, fpn[q])
        delta_c[:, q] = conditional_variance(model, start, q, f.values[q])
        if q > 0:
            g = model.potentials[q - 1]
            mass_ratio = (start * g).sum(-1) / float(etas[q - 1] @ g)
            predicted = means[:, q] - m_inc[:, q]  # Phi(start)(fpn[q])
            a_inc[:, q] = (1.0 - mass_ratio) * predicted
            b_inc[:, q] = root_n * (1.0 - mass_ratio) * (predicted - etas[q] @ fpn[q])
        start = emp

    a, m, b = (np.cumsum(inc, axis=1) for inc in (a_inc, m_inc, b_inc))
    l, w = root_n * m, root_n * field
    return DoobSeries(
        b=b, l=l, w=w, delta_c=delta_c,
        residual_mean=np.max(np.abs(means - (a + m)), axis=1),
        residual_field=np.max(np.abs(w - (b + l)), axis=1),
    )


def simulate_replicates(
    flow: FlowAnalytics, n_particles: int, n_reps: int, seed: int
) -> DoobSeries:
    """Run replicates 0..n_reps-1 of flow.model to its horizon, evaluated in one pass.

    The sizes are checked before simulate is called; the runs are of
    flow.model itself, so doob_terms pairs them with flow.
    """
    if integer(n_reps, "n_reps") < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n_reps}")
    config = RunConfig(n_particles, seed, flow.model.horizon)
    return doob_terms(simulate(config, flow.model, range(n_reps)), flow)
