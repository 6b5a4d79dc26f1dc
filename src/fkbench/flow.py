"""Exact evolution of the weighted flow and its limiting constants.

Deterministic linear algebra on the finite model, each function returning one
filled result: exact_flow the flow and log-normalizers; analyze, for one
test function at the model's horizon, also the transported family (one
O(H d^2) backward sweep) and its limiting variance; contraction_tables the
Dobrushin coefficients and mass ratios of every transport, advanced in stacked
bands, row-pair L1 distances summed in column order as pdist sums them;
transport one of them on demand.  The horizon is the only terminal time: an
earlier one is the horizon of truncate(model, n).
The step law has one form: step_phi, the updated law Phi_n(mu).  The McKean
kernel K = w M_n + (1 - w) Phi_n(mu), with w = eps_n G_n read from the model
by mixing_weights, is used only through its action on functions, never
formed as a d x d matrix; on it rests
conditional_variance, the one-step variance shared by limiting_variance and
the engine's doob_terms.  The limit of the increasing process of f itself is
limiting_variance of f's own values.
Products of a measure, or of an (R, d) batch of them, sum each row in one
order: (mu * v).sum(-1) or np.einsum("...d,de->...e", mu, M), never @, whose
BLAS call rounds a row inside a batch differently than alone; @ on a stack of
matrices multiplies each one alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import FlowConsistencyError, ZeroMass
from .model import FeynmanKacModel, TestFunction, mixing_weights, validate_function


@dataclass(frozen=True)
class ExactFlow:
    """Normalized flow eta_0..eta_H and log-normalizers log gamma_n(1)."""

    etas: list[np.ndarray]
    log_gamma1: np.ndarray


@dataclass(frozen=True)
class FlowAnalytics(ExactFlow):
    """Exact flow plus the limiting variance of one terminal test function.

    Made only by analyze, so f is checked against model.  fpn[p] is the
    normalized transport from p to the terminal time n applied to f_n
    centered under eta_n; deltaC[p] is the conditional-variance increment
    of fpn[p] and sigma_sq their sum.
    """

    fpn: list[np.ndarray]
    deltaC: np.ndarray
    sigma_sq: float
    model: FeynmanKacModel
    f: TestFunction


@dataclass(frozen=True)
class ContractionTables:
    """Upper-triangular tables indexed [p, n], NaN below the diagonal.

    betas[p, n] is the Dobrushin coefficient of the row-normalized transport
    from p to n and ratios[p, n] the max/min ratio of its row masses.
    """

    betas: np.ndarray
    ratios: np.ndarray


def boltzmann_gibbs(model: FeynmanKacModel, mu, n: int) -> np.ndarray:
    """Reweight mu (or each row of an (R, d) mu) by potential n and renormalize."""
    mu = np.asarray(mu, dtype=float)
    weighted = model.potentials[n] * mu
    mass = weighted.sum(axis=-1, keepdims=True)
    if np.any(mass <= 0.0):
        raise ZeroMass(f"measure has zero mass under potential {n}")
    return weighted / mass


def step_phi(model: FeynmanKacModel, mu, n: int) -> np.ndarray:
    """Reweight mu (each row of an (R, d) mu) at time n, then move through kernel n."""
    return np.einsum("...d,de->...e", boltzmann_gibbs(model, mu, n), model.kernels[n])


def exact_flow(model: FeynmanKacModel) -> ExactFlow:
    """Run the flow recursion exactly over the whole horizon.

    log-normalizers are accumulated in the log domain:
    log gamma_{n+1}(1) = log gamma_n(1) + log eta_n(G_n), starting from 0.
    """
    H = model.horizon
    etas = [model.eta0.copy()]
    log_g = np.zeros(H + 1)
    for n in range(H):
        log_g[n + 1] = log_g[n] + np.log(float(etas[n] @ model.potentials[n]))
        etas.append(step_phi(model, etas[n], n))
    return ExactFlow(etas=etas, log_gamma1=log_g)


def _pair_distances(P: np.ndarray) -> np.ndarray:
    """L1 distance of every pair of rows of P, or of each matrix in a stack P.

    Row k is pair k of np.triu_indices.  Each sum runs over the columns in
    order, as pdist's cityblock loop does, so it is pdist's bit for bit.
    """
    first, second = np.triu_indices(P.shape[-2], 1)
    dist = np.zeros((len(first), *P.shape[:-2]))
    for col in np.ascontiguousarray(P.T):
        diff = col.take(first, axis=0)
        diff -= col.take(second, axis=0)
        dist += np.abs(diff, out=diff)
    return dist


def _transport_step(model: FeynmanKacModel, etas: list[np.ndarray], q: int) -> np.ndarray:
    """One factor diag(G_q) M_q / eta_q(G_q) of the normalized transport.

    Rescaling by the one-step normalizer keeps every product O(1).
    """
    g = model.potentials[q]
    return g[:, None] * model.kernels[q] / float(etas[q] @ g)


def transport(
    model: FeynmanKacModel, etas: list[np.ndarray], p: int, n: int
) -> np.ndarray:
    """Normalized transport matrix from time p to n (the identity at p = n).

    It maps eta_p to eta_n; row-normalizing it gives the Markov transport
    whose contraction constants contraction_tables lists.
    """
    acc = np.eye(model.dims[p])
    for q in range(p, n):
        acc = acc @ _transport_step(model, etas, q)
    return acc


def contraction_tables(
    model: FeynmanKacModel, etas: list[np.ndarray]
) -> ContractionTables:
    """Dobrushin coefficients and mass ratios of every transport p -> n.

    The identity n -> n has beta 1 (0 on one state) and ratio 1, and band p
    enters at p + 1 as step p itself.  Runs of consecutive bands of one size
    dims[p] are stacked: one product with step n advances a run (one per
    step at constant dimension), and one _pair_distances call measures it.
    Memory is O(H^2 + H d^2), and the cost O(H^2 d^3).
    """
    H = model.horizon
    betas = np.full((H + 1, H + 1), np.nan)
    ratios = np.full((H + 1, H + 1), np.nan)
    runs = []  # [first band p, stack of the transports p -> n of bands p, p + 1, ...]
    for n in range(H + 1):
        for p, stack in runs:
            mass, bands = stack.sum(axis=2), slice(p, p + len(stack))
            ratios[bands, n] = mass.max(axis=1) / mass.min(axis=1)
            betas[bands, n] = 0.5 * _pair_distances(stack / mass[..., None]).max(0, initial=0.0)
        betas[n, n], ratios[n, n] = float(model.dims[n] > 1), 1.0
        if n < H:
            step = _transport_step(model, etas, n)
            runs = [[p, stack @ step] for p, stack in runs]
            if runs and runs[-1][1].shape[1] == model.dims[n]:
                runs[-1][1] = np.concatenate([runs[-1][1], step[None]])
            else:
                runs.append([n, step[None]])
    return ContractionTables(betas=betas, ratios=ratios)


def _kernel_means(model: FeynmanKacModel, mu, n: int, v: np.ndarray):
    """K v and K v^2 for the step-n kernel K at mu, and the moment Phi(mu)(v^2).

    Row x of K is w_x M_n[x] + (1 - w_x) Phi(mu), and Phi(mu)(u) equals
    boltzmann_gibbs(mu)(M_n u), so neither K nor Phi(mu) is formed.
    """
    w = mixing_weights(model, n)
    bg = boltzmann_gibbs(model, mu, n)
    m1, m2 = model.kernels[n] @ v, model.kernels[n] @ (v * v)
    t1, t2 = (bg * m1).sum(-1), (bg * m2).sum(-1)  # the two moments of Phi(mu)
    kv = w * m1 + (1.0 - w) * t1[..., None]
    kv2 = w * m2 + (1.0 - w) * t2[..., None]
    return kv, kv2, t2


def conditional_variance(model: FeynmanKacModel, mu, n: int, v: np.ndarray):
    """Conditional variance of the time-n sampling error of v.

    mu is the measure the step into time n starts from, or an (R, d) array
    of them with one result per row; the variance is mu(K v^2) - mu((K v)^2)
    with K the step-(n-1) kernel built at mu.  At n = 0, mu is the initial
    law and the result is the variance of v under it.
    """
    mu = np.asarray(mu, dtype=float)
    if n == 0:
        mean = (mu * v).sum(-1)
        return (mu * (v * v)).sum(-1) - mean * mean
    kv, kv2, _ = _kernel_means(model, mu, n - 1, v)
    return np.sum(mu * (kv2 - kv * kv), axis=-1)


def limiting_variance(
    model: FeynmanKacModel, etas: list[np.ndarray], family: list[np.ndarray]
) -> np.ndarray:
    """Conditional-variance increments of a per-time family under the flow.

    Term p is conditional_variance of family[p] at eta_{p-1} (eta_0 at
    p = 0).  Each term p >= 1 is checked against a second, algebraically
    equal form, Phi(mu)(v^2) - mu((K v)^2), and the pair must agree to the
    algebra tolerance.
    """
    out = np.empty(len(family))
    for p, v in enumerate(family):
        mu = etas[max(p - 1, 0)]
        out[p] = conditional_variance(model, mu, p, v)
        if p == 0:
            continue
        kv, _, phi_v2 = _kernel_means(model, mu, p - 1, v)
        form2 = float(phi_v2 - mu @ (kv * kv))
        if abs(out[p] - form2) > tol.ALGEBRA:
            raise FlowConsistencyError(
                f"variance increment forms disagree at p={p}: {out[p]} vs {form2}"
            )
    return out


def concentration_b(tables: ContractionTables, n: int) -> float:
    """Concentration constant b(n) = 2 * sum_{q<=n} ratios[q,n] * betas[q,n].

    tables is anything with betas and ratios arrays laid out as in
    ContractionTables.
    """
    q = np.arange(n + 1)
    return float(2.0 * np.sum(tables.ratios[q, n] * tables.betas[q, n]))


def analyze(model: FeynmanKacModel, f: TestFunction) -> FlowAnalytics:
    """Exact flow, transported family and limiting variance for f at the horizon.

    The family is built backward from the centered terminal function,
    fpn[p] = step_p @ fpn[p+1], which is O(H d^2).  f is checked against
    the model here, once; every consumer of the result reads it unchecked.
    """
    flow = exact_flow(model)
    validate_function(f, model)
    n = model.horizon
    centered = f.values[n] - float(flow.etas[n] @ f.values[n])
    fpn = [centered]
    for p in range(n - 1, -1, -1):
        fpn.append(_transport_step(model, flow.etas, p) @ fpn[-1])
    fpn.reverse()
    delta = limiting_variance(model, flow.etas, fpn)
    return FlowAnalytics(
        etas=flow.etas,
        log_gamma1=flow.log_gamma1,
        fpn=fpn,
        deltaC=delta,
        sigma_sq=float(delta.sum()),
        model=model,
        f=f,
    )
