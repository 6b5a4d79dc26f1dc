"""Reference computations for the tests.

The path and transport sums enumerate trajectories directly, without any of
the matrix recursions used by the library, so they serve as an independent
check of the exact-flow code paths.  mckean_kernel forms the d x d
selection/mutation kernel that the package uses only through its action on
functions; it is the reference law of one particle step.  It and
compatibility_residual are built on the library's step_phi and
mixing_weights on purpose: the compatibility tests then check step_phi
itself, and a zero-eps residual stays exactly 0.0.  reference_step is the
count step as a full draw, the reference for the engine's skipped
zero-weight binomials.  reference_tables is the contraction tables as they
were first computed, one transport at a time and one scipy pdist call per
(p, n): the reference that contraction_tables must equal bit for bit.
"""

import itertools

import numpy as np
from scipy.spatial.distance import pdist

from fkbench.flow import _transport_step, step_phi
from fkbench.model import FeynmanKacModel, mixing_weights


def mckean_kernel(model: FeynmanKacModel, mu, n: int) -> np.ndarray:
    """Row-stochastic selection/mutation kernel for step n -> n+1 at measure mu.

    Row x mixes kernel row x (weight eps_n*G_n(x)) with the updated law of mu
    (complementary weight); eps_n*G_n lies in [0, 1] in every valid model.
    """
    w = mixing_weights(model, n)
    target = step_phi(model, mu, n)
    return w[:, None] * model.kernels[n] + (1.0 - w)[:, None] * target


def compatibility_residual(model: FeynmanKacModel, mu, n: int) -> float:
    """Max-norm gap between mu applied to its own kernel and the direct update.

    Zero in exact arithmetic for every valid (mu, eps); the contract is
    <= 1e-12 in floating point.
    """
    mu = np.asarray(mu, dtype=float)
    kernel = mckean_kernel(model, mu, n)
    target = step_phi(model, mu, n)
    # row-wise difference first: the zero-eps rows cancel exactly
    return float(np.max(np.abs(mu @ (kernel - target[None, :]))))


def reference_step(model: FeynmanKacModel, counts, n: int, rngs):
    """The count step drawn in full: every row draws the own-row binomial at every state.

    The same draws, in the same order, as engine.step_counts, which skips
    the own-row numbers of weight-0 states; this one draws
    rng.binomial(c, weights) over all of them, zero weights and empty states
    included.
    """
    weights = mixing_weights(model, n)
    sizes = counts.sum(axis=1)
    targets = step_phi(model, counts / sizes[:, None], n)
    nxt = np.empty((len(counts), model.dims[n + 1]), dtype=int)
    for row, c, size, target, rng in zip(nxt, counts, sizes, targets, rngs, strict=True):
        own = rng.binomial(c, weights)
        row[:] = rng.multinomial(size - own.sum(), target)
        occ = own > 0
        if occ.any():
            row += rng.multinomial(own[occ], model.kernels[n][occ]).sum(axis=0)
    return nxt


def path_weight(model, path):
    """Initial mass times all step weights along one trajectory."""
    w = model.eta0[path[0]]
    for q in range(len(path) - 1):
        w *= model.potentials[q][path[q]] * model.kernels[q][path[q], path[q + 1]]
    return w


def enumerate_paths(model, n):
    return itertools.product(*[range(model.dims[t]) for t in range(n + 1)])


def flow_by_enumeration(model, n):
    """(eta_n, normalizer mass) by summing over every trajectory."""
    mass = 0.0
    eta = np.zeros(model.dims[n])
    for path in enumerate_paths(model, n):
        w = path_weight(model, path)
        mass += w
        eta[path[-1]] += w
    return eta / mass, mass


def transport_by_enumeration(model, p, n):
    """Unnormalized transport matrix from time p to n by path sums."""
    if p == n:
        return np.eye(model.dims[p])
    Q = np.zeros((model.dims[p], model.dims[n]))
    for xp in range(model.dims[p]):
        for mid in itertools.product(*[range(model.dims[t]) for t in range(p + 1, n)]):
            for xn in range(model.dims[n]):
                seq = (xp,) + mid + (xn,)
                w = 1.0
                for q in range(len(seq) - 1):
                    t = p + q
                    w *= model.potentials[t][seq[q]] * model.kernels[t][seq[q], seq[q + 1]]
                Q[xp, xn] += w
    return Q


def variance_by_enumeration(model, f, n):
    """Limiting variance of the terminal fluctuation, zero-eps kernels.

    With eps = 0 every kernel row equals the one-step updated law, so the
    conditional variance at step p collapses to the plain variance of the
    transported function under eta_p; the p = 0 term is the variance under
    the initial law.  All ingredients are computed by path enumeration.
    """
    etas = [flow_by_enumeration(model, t)[0] for t in range(n + 1)]
    masses = [flow_by_enumeration(model, t)[1] for t in range(n + 1)]
    centered = f.values[n] - etas[n] @ f.values[n]
    total = 0.0
    increments = []
    for p in range(n + 1):
        Q = transport_by_enumeration(model, p, n)
        fpn = (masses[p] / masses[n]) * (Q @ centered)
        inc = float(etas[p] @ (fpn**2)) - float(etas[p] @ fpn) ** 2
        increments.append(inc)
        total += inc
    return np.array(increments), total


def pdist_beta(P: np.ndarray) -> float:
    """Dobrushin coefficient of P as half the largest scipy cityblock distance."""
    return 0.0 if len(P) < 2 else float(0.5 * pdist(P, "cityblock").max())


def reference_tables(model: FeynmanKacModel, etas) -> tuple[np.ndarray, np.ndarray]:
    """Betas and mass ratios of every transport p -> n, one p at a time.

    For each p the products p -> n are accumulated forward in n, each by its
    own matrix product, and each is measured by pdist_beta.
    """
    H = model.horizon
    steps = [_transport_step(model, etas, q) for q in range(H)]
    betas = np.full((H + 1, H + 1), np.nan)
    ratios = np.full((H + 1, H + 1), np.nan)
    for p in range(H + 1):
        acc = np.eye(model.dims[p])
        for n in range(p, H + 1):
            mass = acc.sum(axis=1)
            ratios[p, n] = float(mass.max() / mass.min())
            betas[p, n] = pdist_beta(acc / mass[:, None])
            if n < H:
                acc = acc @ steps[n]
    return betas, ratios
