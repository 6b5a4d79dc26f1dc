"""Finite-state model data: state spaces, kernels, potentials, test functions.

States at time n are the integers 0..d_n-1.  Measures are dense probability
vectors, transition kernels dense row-stochastic matrices, so every limiting
quantity of the theory can be evaluated exactly by matrix recursions.  A
model also carries its particle interpretation, the McKean weights eps_n,
which the flow and the engine read only through mixing_weights.  A model is
valid by construction (FeynmanKacModel runs validate_model), however it is
built, so no reader of a model checks it again.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
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


def integer(value, name: str) -> int:
    """value as an int, numpy integers included; anything else is a ConfigError.

    A bool is rejected too, though Python counts it as an integer.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def real(value, name: str) -> float:
    """value as a finite float, numpy reals included; anything else is a ConfigError."""
    real_number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real_number and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FeynmanKacModel:
    """A time-inhomogeneous weighted Markov model, checked by validate_model when made.

    Attributes:
        dims: state-space sizes (d_0, ..., d_H), H the horizon.
        kernels: H row-stochastic matrices; kernels[n] maps time n to n+1
            and has shape (d_n, d_{n+1}).
        potentials: H+1 strictly positive weight vectors, one per time.
        eta0: initial probability vector of length d_0.
        epsilons: H McKean weights.  Step n moves a particle at x through
            its own kernel row with probability eps_n*G_n(x), which must lie
            in [0, 1], and otherwise draws it from the one-step updated law.
    """

    dims: tuple[int, ...]
    kernels: tuple[np.ndarray, ...]
    potentials: tuple[np.ndarray, ...]
    eta0: np.ndarray
    epsilons: tuple[float, ...]

    def __post_init__(self):
        validate_model(self)

    @property
    def horizon(self) -> int:
        return len(self.dims) - 1


def make_model(eta0, kernels, potentials, epsilons=None) -> FeynmanKacModel:
    """Build a valid model from array-likes, inferring dims from the shapes.

    epsilons None means eps_n = 0 at every step: every particle resamples.
    Non-numeric or misshapen input is a ConfigError.
    """
    try:
        eta0 = np.asarray(eta0, dtype=float)
        kernels = tuple(np.asarray(k, dtype=float) for k in kernels)
        potentials = tuple(np.asarray(g, dtype=float) for g in potentials)
        dims = (len(eta0),) + tuple(k.shape[1] for k in kernels)
        if epsilons is None:
            epsilons = (0.0,) * len(kernels)
        epsilons = tuple(float(e) for e in epsilons)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed model input: {exc}") from exc
    return FeynmanKacModel(
        dims=dims, kernels=kernels, potentials=potentials, eta0=eta0, epsilons=epsilons
    )


@dataclass(frozen=True)
class TestFunction:
    """A bounded real function per time index, stored as dense vectors."""

    values: tuple[np.ndarray, ...]

    def oscillation(self, n: int) -> float:
        v = self.values[n]
        return float(v.max() - v.min()) if v.size else 0.0


def make_function(values) -> TestFunction:
    """A test function from one array-like per time; non-numeric values are a ConfigError."""
    try:
        return TestFunction(values=tuple(np.asarray(v, dtype=float) for v in values))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed test function: {exc}") from exc


def indicator_function(dims, state: int) -> TestFunction:
    """Indicator of a fixed state index at every time."""
    return make_function([(np.arange(d) == state).astype(float) for d in dims])


def validate_model(model: FeynmanKacModel) -> np.ndarray:
    """Check all structural invariants and return the oscillation ratios.

    Returns:
        array of r_n = max(G_n)/min(G_n), one per time index.

    Raises:
        NonStochasticKernel, NonPositivePotential, BadInitialLaw,
        EpsilonOutOfRange (not H weights, or some eps_n*G_n, NaN included, > 1 or < 0).
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
    if not np.all(model.eta0 >= 0) or abs(model.eta0.sum() - 1.0) > tol.ALGEBRA:
        raise BadInitialLaw(
            f"eta0 must be a probability vector (sum={model.eta0.sum()!r})"
        )

    for n, kern in enumerate(model.kernels):
        if kern.shape != (model.dims[n], model.dims[n + 1]):
            raise NonStochasticKernel(
                f"kernel {n} has shape {kern.shape}, expected "
                f"({model.dims[n]}, {model.dims[n + 1]})"
            )
        if not np.all(kern >= 0) or np.any(np.abs(kern.sum(axis=1) - 1.0) > tol.ALGEBRA):
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

    if len(model.epsilons) != H:
        raise EpsilonOutOfRange(f"expected {H} epsilons, got {len(model.epsilons)}")
    for n, eps in enumerate(model.epsilons):
        w = eps * model.potentials[n]
        if not eps >= 0 or np.any(w > 1.0 + tol.ALGEBRA):
            raise EpsilonOutOfRange(
                f"eps[{n}]={eps} puts eps*G outside [0,1] (max={w.max()})"
            )
    return ratios


def validate_function(f: TestFunction, model: FeynmanKacModel) -> None:
    """Check f has d_q finite values at every time q <= H, or raise ConfigError.

    Later vectors are allowed and never read: truncate cuts the model, not f.
    """
    if len(f.values) < len(model.dims):
        raise ConfigError(
            f"function defines {len(f.values)} time indices, horizon needs {len(model.dims)}"
        )
    for q, (v, d) in enumerate(zip(f.values, model.dims)):
        if v.shape != (d,) or not np.all(np.isfinite(v)):
            raise ConfigError(f"function vector {q} must hold {d} finite values")


def mixing_weights(model: FeynmanKacModel, n: int) -> np.ndarray:
    """Own-row weights eps_n * G_n(x) of step n, clipped to [0, 1].

    The one reader of the McKean weights.  validate_model has put them in
    [0, 1 + ALGEBRA]; the clip takes the rounding above 1 back to 1.
    """
    return np.minimum(model.epsilons[n] * model.potentials[n], 1.0)


def truncate(model: FeynmanKacModel, horizon: int) -> FeynmanKacModel:
    """Restrict a model to a shorter horizon; at its own horizon, the model itself."""
    if not 0 <= integer(horizon, "horizon") <= model.horizon:
        raise ConfigError(f"horizon {horizon} outside [0, {model.horizon}]")
    if horizon == model.horizon:  # valid already: no copy to validate again
        return model
    return FeynmanKacModel(
        dims=model.dims[: horizon + 1],
        kernels=model.kernels[:horizon],
        potentials=model.potentials[: horizon + 1],
        eta0=model.eta0,
        epsilons=model.epsilons[:horizon],
    )


# ---------------------------------------------------------------------------
# JSON schemas.  Model files: {horizon, dims, kernels, potentials, eta0,
# epsilons}; function files: {values}.  Arrays are nested row-major lists.
# ---------------------------------------------------------------------------

def model_to_dict(model: FeynmanKacModel) -> dict:
    return {
        "horizon": model.horizon,
        "dims": list(model.dims),
        "kernels": [k.tolist() for k in model.kernels],
        "potentials": [g.tolist() for g in model.potentials],
        "eta0": model.eta0.tolist(),
        "epsilons": list(model.epsilons),
    }


def model_from_dict(data: dict) -> FeynmanKacModel:
    try:  # list(): a null epsilons is malformed, not eps = 0
        parts = data["eta0"], data["kernels"], data["potentials"], list(data["epsilons"])
        declared = data["horizon"]
        dims = tuple(data["dims"]) if "dims" in data else None
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed model object: {exc}") from exc
    model = make_model(*parts)
    if integer(declared, "declared horizon") != model.horizon:
        raise ConfigError(
            f"declared horizon {declared} != {model.horizon} implied by kernels"
        )
    if dims is not None and dims != model.dims:
        raise ConfigError(
            f"declared dims {data['dims']} != {list(model.dims)} implied by shapes"
        )
    return model


def _read_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


def open_output(path):
    """Open path for writing text; a path that cannot be opened is a ConfigError."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


_CONTAINERS = (dict, list, tuple, np.ndarray)


def write_json(out, x) -> None:
    """Write x and a newline to the text stream out, as json.dumps(x, indent=2).

    Arrays and tuples go out as lists, non-finite floats as null.  Each list
    of scalars is one write, so memory does not grow with the output.
    """
    _write_value(out, x, "\n")
    out.write("\n")


def _write_value(out, x, indent: str) -> None:
    if isinstance(x, np.ndarray):  # row by row: no second copy of a whole table
        x = list(x) if x.ndim > 1 else x.tolist()
    if not isinstance(x, _CONTAINERS):
        out.write(_json_scalar(x))
        return
    if not x:
        out.write("{}" if isinstance(x, dict) else "[]")
        return
    inner = indent + "  "
    if isinstance(x, dict):
        out.write("{")
        for i, (key, value) in enumerate(x.items()):
            # json writes a non-string key as the JSON of its value, quoted
            key = key if isinstance(key, str) else json.dumps(key)
            out.write(("," if i else "") + inner + json.dumps(key) + ": ")
            _write_value(out, value, inner)
        out.write(indent + "}")
    elif any(isinstance(v, _CONTAINERS) for v in x):
        out.write("[")
        for i, value in enumerate(x):
            out.write(("," if i else "") + inner)
            _write_value(out, value, inner)
        out.write(indent + "]")
    else:
        out.write("[" + inner + ("," + inner).join(map(_json_scalar, x)) + indent + "]")


def _json_scalar(x) -> str:
    if isinstance(x, float):  # float.__repr__: a numpy float64 is written as json writes it
        return float.__repr__(x) if math.isfinite(x) else "null"
    return json.dumps(x)


def load_model(path) -> FeynmanKacModel:
    return model_from_dict(_read_json(path, "model"))


def save_model(path, model: FeynmanKacModel) -> None:
    with open_output(path) as fh:
        write_json(fh, model_to_dict(model))


def function_to_dict(f: TestFunction) -> dict:
    return {"values": [v.tolist() for v in f.values]}


def function_from_dict(data: dict) -> TestFunction:
    try:  # make_function raises its own ConfigError
        f = make_function(data["values"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed function object: {exc}") from exc
    if not all(np.all(np.isfinite(v)) for v in f.values):
        raise ConfigError("test function contains non-finite entries")
    return f


def load_function(path) -> TestFunction:
    return function_from_dict(_read_json(path, "function"))


def save_function(path, f: TestFunction) -> None:
    with open_output(path) as fh:
        write_json(fh, function_to_dict(f))
