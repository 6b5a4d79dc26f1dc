"""Canonical parameterized models, one per structural case.

Every entry bundles a model, its McKean weights included, and a default
test function, plus a note on what it exercises.  Entries are reproducible
constants: any randomness inside a builder comes from a fixed builder seed.
A builder states its parameters once, in its signature: the _entry
decorator that registers it types each argument by its default, whether the
builder is called directly or through build, and records the typed
arguments as the entry's params.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HorizonTooLargeForPathSpace, UnknownEntry
from .model import (
    FeynmanKacModel,
    TestFunction,
    indicator_function,
    integer,
    make_function,
    make_model,
    real,
)
from .rng import stream

MAX_PATH_HORIZON = 8  # path dimension 2**(n+1) caps at 512


@dataclass(frozen=True)
class ZooEntry:
    name: str
    params: dict
    model: FeynmanKacModel
    f: TestFunction
    notes: str


_BUILDERS = {}


def _entry(notes: str):
    """Register a builder that returns (model, f, derived) as the zoo entry of its name.

    The registered builder binds its call to the builder's signature with the
    defaults applied, and types each argument by its default: integer for an
    int default, real for any other.  An unknown argument or a negative
    horizon is a ConfigError.  The entry's params are the typed arguments
    plus the derived dict.
    """

    def register(builder):
        name, signature = builder.__name__, inspect.signature(builder)
        types = {
            k: integer if isinstance(p.default, int) else real
            for k, p in signature.parameters.items()
        }

        @functools.wraps(builder)
        def build_entry(*args, **kwargs) -> ZooEntry:
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError as exc:
                raise ConfigError(f"{name}: {exc}") from None
            bound.apply_defaults()
            params = {k: types[k](v, k) for k, v in bound.arguments.items()}
            if params.get("horizon", 0) < 0:
                raise ConfigError(f"{name} needs horizon >= 0, got {params['horizon']}")
            model, f, derived = builder(**params)
            return ZooEntry(name, {**params, **derived}, model, f, notes)

        _BUILDERS[name] = build_entry
        return build_entry

    return register


def _hmm_parts(horizon, stay0, stay1, accuracy, obs_seed):
    """Transition matrix, synthetic observations and likelihood potentials."""
    M = np.array([[stay0, 1.0 - stay0], [1.0 - stay1, stay1]])
    rng = stream(obs_seed, 0)
    # simulate one hidden trajectory and flip each emission with prob 1-accuracy
    x = 0 if rng.random() < 0.5 else 1
    obs = []
    for n in range(horizon + 1):
        if n > 0:
            x = 0 if rng.random() < M[x, 0] else 1
        y = x if rng.random() < accuracy else 1 - x
        obs.append(y)
    potentials = []
    for y in obs:
        g = np.where(np.arange(2) == y, accuracy, 1.0 - accuracy)
        potentials.append(g)
    return M, tuple(obs), potentials


@_entry("nonlinear filtering posterior; the default rate-experiment target")
def binary_hmm(
    horizon: int = 5,
    stay0: float = 0.985,
    stay1: float = 0.985,
    accuracy: float = 0.985,
    eps_scale: float = 0.0,
    obs_seed: int = 1905,
):
    """Two-state filtering model with likelihood potentials.

    The potentials are the emission likelihoods of one fixed synthetic
    observation record, so the flow is the exact posterior of the hidden
    state.  eps_scale in [0, 1] sets eps_n = eps_scale / max(G_n).
    """
    M, obs, potentials = _hmm_parts(horizon, stay0, stay1, accuracy, obs_seed)
    model = make_model(
        eta0=[0.5, 0.5],
        kernels=[M] * horizon,
        potentials=potentials,
        epsilons=[eps_scale / potentials[n].max() for n in range(horizon)],
    )
    return model, indicator_function(model.dims, 1), {"observations": list(obs)}


@_entry("uniform mixing case with an explicit (m, r, rho) certificate")
def ring_walk(
    d: int = 4,
    holding: float = 0.5,
    ratio: float = 2.0,
    horizon: int = 5,
    eps_scale: float = 0.5,
):
    """Random walk on a d-ring with a distinguished heavy site.

    The walk holds with probability `holding`, otherwise moves to a uniform
    neighbor.  Potentials are constant in time with max/min ratio `ratio`.
    With 0 < holding < 1, m steps reach every site exactly when m >= d // 2
    (d >= 2), so the (d // 2)-step composition is strictly positive and the
    model satisfies an explicit (m = d // 2, r=ratio, rho) minorization,
    which is what this entry is for: m = 2 only for d <= 5, and d = 16 with
    holding 0.5 needs m = 8, where rho = 1/6435.  eps_n = eps_scale / ratio
    keeps the kernel weights in [0, 1].
    """
    if d < 1 or ratio <= 0:
        raise ConfigError(f"ring_walk needs d >= 1 and ratio > 0, got {d} and {ratio}")
    M = np.zeros((d, d))
    for x in range(d):
        M[x, x] = holding
        M[x, (x - 1) % d] += (1.0 - holding) / 2.0
        M[x, (x + 1) % d] += (1.0 - holding) / 2.0
    g = np.ones(d)
    g[0] = ratio
    model = make_model(
        eta0=np.full(d, 1.0 / d),
        kernels=[M] * horizon,
        potentials=[g] * (horizon + 1),
        epsilons=[eps_scale / ratio] * horizon,
    )
    # half-amplitude wave: oscillation exactly 1, usable in every experiment
    f = make_function([0.5 * np.cos(2.0 * np.pi * np.arange(d) / d)] * (horizon + 1))
    return model, f, {}


@_entry("genealogical path expansion; marginal must equal binary_hmm")
def path_genealogy(
    horizon: int = 5,
    stay0: float = 0.985,
    stay1: float = 0.985,
    accuracy: float = 0.985,
    obs_seed: int = 1905,
):
    """Path-space expansion of the two-state filtering model.

    States at time n are whole trajectories (x_0, ..., x_n) encoded as base-2
    integers (x_0 is the lowest bit), so d_n = 2**(n+1).  Kernels append one
    coordinate; potentials depend on the terminal coordinate only, making the
    particle system a genealogical-tree sampler whose terminal-coordinate
    marginal must match the flat filtering flow.
    """
    if horizon > MAX_PATH_HORIZON:
        raise HorizonTooLargeForPathSpace(
            f"horizon {horizon} gives dimension 2**{horizon + 1}; "
            f"cap is {MAX_PATH_HORIZON}"
        )
    M, obs, flat_potentials = _hmm_parts(horizon, stay0, stay1, accuracy, obs_seed)
    kernels, potentials, values = [], [], []
    for n in range(horizon + 1):
        codes = np.arange(2 ** (n + 1))
        last = path_last_state(codes, n)
        potentials.append(flat_potentials[n][last])
        values.append(last.astype(float))
        if n < horizon:  # x_{n+1} = nxt moves code to code + nxt * 2**(n+1)
            K = np.zeros((codes.size, 2 * codes.size))
            K[codes, codes] = M[last, 0]
            K[codes, codes + codes.size] = M[last, 1]
            kernels.append(K)
    model = make_model(eta0=[0.5, 0.5], kernels=kernels, potentials=potentials)
    return model, make_function(values), {"observations": list(obs)}


def path_last_state(code, n: int):
    """Terminal coordinate of a base-2 path code of length n+1 (an int or an int array)."""
    return (code >> n) & 1


def path_decode(code: int, n: int) -> tuple[int, ...]:
    """Full coordinate tuple (x_0, ..., x_n) of a path code."""
    return tuple((code >> q) & 1 for q in range(n + 1))


@_entry("unit potentials; flow reduces to the plain chain law")
def plain_markov(horizon: int = 5, eps: float = 1.0):
    """Unweighted two-state chain: potentials are identically one.

    The flow is the bare chain law, and with eps = 1 the particle kernel is
    the chain kernel itself (fully independent particles), which makes this
    the degeneracy and reduction oracle.
    """
    M = np.array([[0.8, 0.2], [0.3, 0.7]])
    model = make_model(
        eta0=[0.5, 0.5],
        kernels=[M] * horizon,
        potentials=[np.ones(2)] * (horizon + 1),
        epsilons=[eps] * horizon,
    )
    return model, indicator_function(model.dims, 0), {}


@_entry("independent draws only; classical rate calibration")
def iid_reduction(p: float = 0.2):
    """Horizon-0 model: the fluctuation is a standardized binomial error.

    Used to calibrate the rate harness against the classical independent-sum
    normal approximation, whose exact distance is computable from the
    binomial distribution.
    """
    model = make_model(eta0=[1.0 - p, p], kernels=[], potentials=[np.ones(2)])
    return model, indicator_function(model.dims, 1), {}


def names() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str, **params) -> ZooEntry:
    """Build a zoo entry by name: UnknownEntry if unknown, ConfigError on a bad param."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownEntry(f"unknown zoo entry {name!r}; know {names()}") from None
    return builder(**params)
