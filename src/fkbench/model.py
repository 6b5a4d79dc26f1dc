"""Finite-state model data: state spaces, kernels, potentials, test functions.

States at time n are the integers 0..d_n-1.  Measures are dense probability
vectors, transition kernels dense row-stochastic matrices, so every limiting
quantity of the theory can be evaluated exactly by matrix recursions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    BadInitialLaw,
    ConfigError,
    EpsilonOutOfRange,
    NonPositivePotential,
    NonStochasticKernel,
)


@dataclass(frozen=True)
class FeynmanKacModel:
    """A time-inhomogeneous weighted Markov model on finite state spaces.

    Attributes:
        dims: state-space sizes (d_0, ..., d_H), H the horizon.
        kernels: H row-stochastic matrices; kernels[n] maps time n to n+1
            and has shape (d_n, d_{n+1}).
        potentials: H+1 strictly positive weight vectors, one per time.
        eta0: initial probability vector of length d_0.
    """

    dims: tuple[int, ...]
    kernels: tuple[np.ndarray, ...]
    potentials: tuple[np.ndarray, ...]
    eta0: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.dims) - 1


def make_model(eta0, kernels, potentials) -> FeynmanKacModel:
    """Build a model from array-likes, inferring dims from the shapes."""
    eta0 = np.asarray(eta0, dtype=float)
    kernels = tuple(np.asarray(k, dtype=float) for k in kernels)
    potentials = tuple(np.asarray(g, dtype=float) for g in potentials)
    dims = (len(eta0),) + tuple(k.shape[1] for k in kernels)
    return FeynmanKacModel(dims=dims, kernels=kernels, potentials=potentials, eta0=eta0)


@dataclass(frozen=True)
class McKeanSpec:
    """Constant mixing weights eps_n, one per transition step.

    Step n uses the kernel row eps_n*G_n(x)*M_{n+1}(x, .) plus the complementary
    weight on the one-step updated law, so eps_n*G_n(x) must lie in [0, 1].
    """

    epsilons: tuple[float, ...]

    @staticmethod
    def zero(n_steps: int) -> "McKeanSpec":
        return McKeanSpec(epsilons=(0.0,) * n_steps)


@dataclass(frozen=True)
class TestFunction:
    """A bounded real function per time index, stored as dense vectors."""

    values: tuple[np.ndarray, ...]

    def oscillation(self, n: int) -> float:
        v = self.values[n]
        return float(v.max() - v.min()) if v.size else 0.0


def make_function(values) -> TestFunction:
    return TestFunction(values=tuple(np.asarray(v, dtype=float) for v in values))


def indicator_function(dims, state: int) -> TestFunction:
    """Indicator of a fixed state index at every time."""
    return make_function([(np.arange(d) == state).astype(float) for d in dims])


def validate_model(model: FeynmanKacModel) -> np.ndarray:
    """Check all structural invariants and return the oscillation ratios.

    Returns:
        array of r_n = max(G_n)/min(G_n), one per time index.

    Raises:
        NonStochasticKernel, NonPositivePotential, BadInitialLaw.
    """
    H = model.horizon
    if len(model.kernels) != H:
        raise NonStochasticKernel(
            f"expected {H} kernels for horizon {H}, got {len(model.kernels)}"
        )
    if len(model.potentials) != H + 1:
        raise NonPositivePotential(
            f"expected {H + 1} potential vectors, got {len(model.potentials)}"
        )
    if any(d < 1 for d in model.dims):
        raise BadInitialLaw(f"state-space sizes must be >= 1, got {model.dims}")

    if model.eta0.shape != (model.dims[0],):
        raise BadInitialLaw(
            f"eta0 has length {model.eta0.shape}, expected ({model.dims[0]},)"
        )
    if np.any(model.eta0 < 0) or abs(model.eta0.sum() - 1.0) > tol.ALGEBRA:
        raise BadInitialLaw(
            f"eta0 must be a probability vector (sum={model.eta0.sum()!r})"
        )

    for n, kern in enumerate(model.kernels):
        if kern.shape != (model.dims[n], model.dims[n + 1]):
            raise NonStochasticKernel(
                f"kernel {n} has shape {kern.shape}, expected "
                f"({model.dims[n]}, {model.dims[n + 1]})"
            )
        if np.any(kern < 0) or np.any(np.abs(kern.sum(axis=1) - 1.0) > tol.ALGEBRA):
            raise NonStochasticKernel(f"kernel {n} rows are not probability vectors")

    ratios = np.empty(H + 1)
    for n, pot in enumerate(model.potentials):
        if pot.shape != (model.dims[n],):
            raise NonPositivePotential(
                f"potential {n} has length {pot.shape}, expected ({model.dims[n]},)"
            )
        if np.any(pot <= 0) or not np.all(np.isfinite(pot)):
            raise NonPositivePotential(f"potential {n} must be strictly positive")
        ratios[n] = pot.max() / pot.min()
    return ratios


def mixing_weights(model: FeynmanKacModel, spec: McKeanSpec, n: int) -> np.ndarray:
    """Own-row weights eps_n * G_n(x) of step n, clipped to [0, 1].

    Values up to 1 + ALGEBRA are rounding and are clipped to 1.

    Raises:
        EpsilonOutOfRange: eps_n < 0 or some eps_n * G_n(x) > 1 + ALGEBRA.
    """
    eps = spec.epsilons[n]
    w = eps * model.potentials[n]
    if eps < 0 or np.any(w > 1.0 + tol.ALGEBRA):
        raise EpsilonOutOfRange(
            f"eps[{n}]={eps} puts eps*G outside [0,1] (max={w.max()})"
        )
    return np.minimum(w, 1.0)


def validate_spec(spec: McKeanSpec, model: FeynmanKacModel) -> None:
    """Check eps_n * G_n(x) in [0, 1] for every step and state."""
    if len(spec.epsilons) != model.horizon:
        raise EpsilonOutOfRange(
            f"expected {model.horizon} epsilons, got {len(spec.epsilons)}"
        )
    for n in range(model.horizon):
        mixing_weights(model, spec, n)


def truncate(model: FeynmanKacModel, spec: McKeanSpec, horizon: int):
    """Restrict a model/spec pair to a shorter horizon."""
    if not 0 <= horizon <= model.horizon:
        raise ConfigError(f"horizon {horizon} outside [0, {model.horizon}]")
    cut = FeynmanKacModel(
        dims=model.dims[: horizon + 1],
        kernels=model.kernels[:horizon],
        potentials=model.potentials[: horizon + 1],
        eta0=model.eta0,
    )
    return cut, McKeanSpec(epsilons=spec.epsilons[:horizon])


# ---------------------------------------------------------------------------
# JSON schemas.  Model files: {horizon, dims, kernels, potentials, eta0,
# epsilons}; function files: {values}.  Arrays are nested row-major lists.
# ---------------------------------------------------------------------------

def model_to_dict(model: FeynmanKacModel, spec: McKeanSpec) -> dict:
    return {
        "horizon": model.horizon,
        "dims": list(model.dims),
        "kernels": [k.tolist() for k in model.kernels],
        "potentials": [g.tolist() for g in model.potentials],
        "eta0": model.eta0.tolist(),
        "epsilons": list(spec.epsilons),
    }


def model_from_dict(data: dict) -> tuple[FeynmanKacModel, McKeanSpec]:
    try:
        model = make_model(data["eta0"], data["kernels"], data["potentials"])
        spec = McKeanSpec(epsilons=tuple(float(e) for e in data["epsilons"]))
        declared = int(data["horizon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model object: {exc}") from exc
    if declared != model.horizon:
        raise ConfigError(
            f"declared horizon {declared} != {model.horizon} implied by kernels"
        )
    if "dims" in data and tuple(data["dims"]) != model.dims:
        raise ConfigError(
            f"declared dims {data['dims']} != {list(model.dims)} implied by shapes"
        )
    validate_model(model)
    validate_spec(spec, model)
    return model, spec


def _read_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def _write_json(path, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[FeynmanKacModel, McKeanSpec]:
    return model_from_dict(_read_json(path, "model"))


def save_model(path, model: FeynmanKacModel, spec: McKeanSpec) -> None:
    _write_json(path, model_to_dict(model, spec))


def function_to_dict(f: TestFunction) -> dict:
    return {"values": [v.tolist() for v in f.values]}


def function_from_dict(data: dict) -> TestFunction:
    try:
        f = make_function(data["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed function object: {exc}") from exc
    if not all(np.all(np.isfinite(v)) for v in f.values):
        raise ConfigError("test function contains non-finite entries")
    return f


def load_function(path) -> TestFunction:
    return function_from_dict(_read_json(path, "function"))


def save_function(path, f: TestFunction) -> None:
    _write_json(path, function_to_dict(f))
