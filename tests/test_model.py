import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fkbench.errors import (
    BadInitialLaw,
    ConfigError,
    EpsilonOutOfRange,
    NonPositivePotential,
    NonStochasticKernel,
)
from fkbench.model import (
    McKeanSpec,
    function_from_dict,
    function_to_dict,
    indicator_function,
    load_model,
    make_function,
    make_model,
    model_from_dict,
    model_to_dict,
    save_model,
    truncate,
    validate_model,
    validate_spec,
)


def test_oscillation_ratios_constant_potential():
    model = make_model([0.5, 0.5], [np.eye(2)], [np.ones(2), np.ones(2)])
    assert_allclose(validate_model(model), [1.0, 1.0])


def test_oscillation_ratios_quotient(two_state):
    model, _, _ = two_state
    assert_allclose(validate_model(model), [4.0, 4.0, 4.0])


def test_zero_potential_rejected():
    with pytest.raises(NonPositivePotential):
        validate_model(
            make_model([1.0], [np.ones((1, 1))], [np.array([0.0]), np.ones(1)])
        )


@pytest.mark.parametrize(
    "kernel",
    [
        np.array([[0.5, 0.4], [0.3, 0.7]]),
        np.array([[1.1, -0.1], [0.3, 0.7]]),
        np.array([[np.nan, 0.5], [0.3, 0.7]]),
    ],
)
def test_bad_kernel_rejected(kernel):
    with pytest.raises(NonStochasticKernel):
        validate_model(make_model([0.5, 0.5], [kernel], [np.ones(2)] * 2))


def test_bad_initial_law_rejected():
    with pytest.raises(BadInitialLaw):
        validate_model(make_model([0.5, 0.6], [np.eye(2)], [np.ones(2)] * 2))


def test_nan_initial_law_rejected():
    with pytest.raises(BadInitialLaw):
        validate_model(make_model([np.nan, 1.0], [np.eye(2)], [np.ones(2)] * 2))


def test_kernel_shape_mismatch():
    model = make_model([0.5, 0.5], [np.eye(2)], [np.ones(2)] * 2)
    broken = type(model)(
        dims=(2, 3), kernels=model.kernels, potentials=model.potentials,
        eta0=model.eta0,
    )
    with pytest.raises(NonStochasticKernel):
        validate_model(broken)


def test_spec_validation(two_state):
    model, _, _ = two_state
    validate_spec(McKeanSpec(epsilons=(0.5, 0.25)), model)  # eps*G max = 1.0
    with pytest.raises(EpsilonOutOfRange):
        validate_spec(McKeanSpec(epsilons=(0.6, 0.0)), model)
    with pytest.raises(EpsilonOutOfRange):
        validate_spec(McKeanSpec(epsilons=(0.1,)), model)


def test_oscillation():
    f = make_function([[0.0, 1.0], [2.0, 2.0]])
    assert f.oscillation(0) == 1.0
    assert f.oscillation(1) == 0.0
    assert_allclose([f.oscillation(n) for n in range(len(f.values))], [1.0, 0.0])


def test_truncate(two_state):
    model, spec, _ = two_state
    cut, cut_spec = truncate(model, spec, 1)
    assert cut.horizon == 1
    assert len(cut.kernels) == 1
    assert len(cut_spec.epsilons) == 1
    with pytest.raises(ConfigError):
        truncate(model, spec, 3)


def test_model_json_roundtrip(two_state, tmp_path):
    model, spec, _ = two_state
    data = model_to_dict(model, spec)
    again, again_spec = model_from_dict(json.loads(json.dumps(data)))
    assert again.dims == model.dims
    assert again_spec.epsilons == spec.epsilons
    for a, b in zip(again.kernels, model.kernels):
        assert_allclose(a, b)

    path = tmp_path / "model.json"
    save_model(path, model, spec)
    loaded, loaded_spec = load_model(path)
    assert loaded.dims == model.dims
    assert loaded_spec.epsilons == spec.epsilons


def test_model_json_errors(two_state, tmp_path):
    model, spec, _ = two_state
    data = model_to_dict(model, spec)
    data["horizon"] = 5
    with pytest.raises(ConfigError):
        model_from_dict(data)
    with pytest.raises(ConfigError):
        model_from_dict({"eta0": [1.0]})
    with pytest.raises(ConfigError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_model(bad)


def test_function_json_roundtrip():
    f = indicator_function((2, 2), 1)
    again = function_from_dict(function_to_dict(f))
    for a, b in zip(again.values, f.values):
        assert_allclose(a, b)
    with pytest.raises(ConfigError):
        function_from_dict({"values": [[np.inf]]})
    with pytest.raises(ConfigError):
        function_from_dict({})
