import hashlib
import io
import json
import math
import sys
from dataclasses import replace

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
from fkbench.cli import main
from fkbench.flow import analyze
from fkbench.model import (
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
    validate_function,
    validate_model,
    write_json,
)
from fkbench import zoo


def test_oscillation_ratios_constant_potential():
    model = make_model([0.5, 0.5], [np.eye(2)], [np.ones(2), np.ones(2)])
    assert_allclose(validate_model(model), [1.0, 1.0])


def test_oscillation_ratios_quotient(two_state):
    model, _ = two_state
    assert_allclose(validate_model(model), [4.0, 4.0, 4.0])


def test_zero_potential_rejected():
    with pytest.raises(NonPositivePotential):
        make_model([1.0], [np.ones((1, 1))], [np.array([0.0]), np.ones(1)])


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
        make_model([0.5, 0.5], [kernel], [np.ones(2)] * 2)


def test_bad_initial_law_rejected():
    with pytest.raises(BadInitialLaw):
        make_model([0.5, 0.6], [np.eye(2)], [np.ones(2)] * 2)


def test_nan_initial_law_rejected():
    with pytest.raises(BadInitialLaw):
        make_model([np.nan, 1.0], [np.eye(2)], [np.ones(2)] * 2)


def test_kernel_shape_mismatch():
    model = make_model([0.5, 0.5], [np.eye(2)], [np.ones(2)] * 2)
    with pytest.raises(NonStochasticKernel):
        replace(model, dims=(2, 3))


def test_spec_validation(two_state):
    """A model's McKean weights are checked at construction: H of them, each eps*G in [0, 1]."""
    model, _ = two_state
    assert model.epsilons == (0.0, 0.0)
    replace(model, epsilons=(0.5, 0.25))  # eps*G max = 1.0
    for bad in [(0.6, 0.0), (0.1,), (-0.1, 0.0), (np.nan, 0.0), (0.0, np.inf)]:
        with pytest.raises(EpsilonOutOfRange):
            replace(model, epsilons=bad)


def test_verify_clt_validates_its_model_once(monkeypatch, tmp_path):
    """One CLI run validates its model once, when the builder makes it.

    Cutting it to its own horizon returns the model itself, with no copy to
    validate again.

    Every fkbench module that binds validate_model is spied on, so a
    re-check anywhere in the run is counted.
    """
    calls = []

    def counted(model):
        calls.append(model.horizon)
        return validate_model(model)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "validate_model", None)
        if name.split(".")[0] == "fkbench" and bound is validate_model:
            monkeypatch.setattr(module, "validate_model", counted)
    out = tmp_path / "report.json"
    main(["verify", "clt", "--zoo", "binary_hmm", "--reps", "200", "--out", str(out)])
    assert json.loads(out.read_text())["n_reps"] == 200
    assert calls == [5]


ANALYZING_COMMANDS = {
    "verify clt": ["verify", "clt", "--reps", "200"],
    "verify concentration": ["verify", "concentration", "--N", "100", "--reps", "100"],
    "verify moments": ["verify", "moments", "--N", "100", "--reps", "100"],
    "verify stein": ["verify", "stein", "--N", "100", "--reps", "100"],
    "simulate": ["simulate", "--N", "100", "--reps", "10"],
}


@pytest.mark.parametrize("command", list(ANALYZING_COMMANDS))
def test_command_analyzes_once(command, monkeypatch, tmp_path):
    """One CLI run makes the analytics of (model, f) once, and only analyze checks f.

    analyze and validate_function are spied on at every fkbench module that
    binds them, so a second analysis or a re-check anywhere in the run is
    counted, with the name of the function that made the call.
    """
    calls = []

    def spy(real):
        def counted(*args):
            calls.append((real.__name__, sys._getframe(1).f_code.co_name))
            return real(*args)
        return counted

    for real in (analyze, validate_function):
        fake = spy(real)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fkbench" and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, fake)
    out = tmp_path / "out"
    main([*ANALYZING_COMMANDS[command], "--zoo", "binary_hmm", "--out", str(out)])
    assert out.exists()
    assert [name for name, _ in calls].count("analyze") == 1
    assert [caller for name, caller in calls if name == "validate_function"] == ["analyze"]


def test_oscillation():
    f = make_function([[0.0, 1.0], [2.0, 2.0]])
    assert f.oscillation(0) == 1.0
    assert f.oscillation(1) == 0.0
    assert_allclose([f.oscillation(n) for n in range(len(f.values))], [1.0, 0.0])


def test_truncate(two_state):
    model, _ = two_state
    cut = truncate(replace(model, epsilons=(0.25, 0.5)), 1)
    assert cut.horizon == 1
    assert len(cut.kernels) == 1
    assert cut.epsilons == (0.25,)
    with pytest.raises(ConfigError):
        truncate(model, 3)


def test_truncate_to_own_horizon_is_the_model(two_state):
    model, _ = two_state
    assert truncate(model, model.horizon) is model
    with pytest.raises(ConfigError):
        truncate(model, 2.5)


def test_truncate_to_shorter_horizon_validates_a_new_model(two_state, monkeypatch):
    model, _ = two_state
    calls = []

    def counted(m):
        calls.append(m.horizon)
        return validate_model(m)

    monkeypatch.setattr(sys.modules["fkbench.model"], "validate_model", counted)
    cut = truncate(model, 1)
    assert cut is not model and cut.horizon == 1
    assert calls == [1]


def test_model_json_roundtrip(two_state, tmp_path):
    model = replace(two_state[0], epsilons=(0.3, 0.1))
    data = model_to_dict(model)
    again = model_from_dict(json.loads(json.dumps(data)))
    assert again.dims == model.dims
    assert again.epsilons == model.epsilons
    for a, b in zip(again.kernels, model.kernels):
        assert_allclose(a, b)

    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.dims == model.dims
    assert loaded.epsilons == model.epsilons


# sha256 of `fkbench zoo export` output: the model file format, byte for byte
EXPORT_DIGESTS = {
    "binary_hmm mixed": (
        ["--name", "binary_hmm", "--zoo-params", '{"eps_scale": 0.5, "stay0": 0.9, '
         '"stay1": 0.9, "accuracy": 0.75, "obs_seed": 3}'],
        "b514bd70ff6f05a91dbeee128c99f1c32134c016d3be20d22ff88cb9c1f4fb33",
    ),
    "ring_walk": (
        ["--name", "ring_walk"],
        "7db7765422bb0229a02ad27a67adb79ff00a02b5d2daf4f7bfa6a50a9223cad3",
    ),
}


@pytest.mark.parametrize("case", list(EXPORT_DIGESTS))
def test_model_file_format_is_pinned(case, tmp_path, capsys):
    argv, digest = EXPORT_DIGESTS[case]
    path = tmp_path / "model.json"
    assert main(["zoo", "export", *argv, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    epsilons = json.loads(path.read_text())["epsilons"]
    assert max(epsilons) > 0.0
    assert list(load_model(path).epsilons) == epsilons


def test_model_json_errors(two_state, tmp_path):
    model, _ = two_state
    data = model_to_dict(model)
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


def plain(x):
    """x as plain JSON data: tuples and arrays as lists, non-finite floats as None.

    The reference for write_json: reports were json.dumps(plain(x), indent=2).
    """
    if isinstance(x, np.ndarray):
        x = list(x) if x.ndim > 1 else x.tolist()
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


JSON_PANEL = {
    "non-finite floats": [np.nan, np.inf, -np.inf, 1.0],
    "zeros and extremes": [-0.0, 0.0, 1e300, -1e300, 5e-324, 0.1],
    "empty containers": {"dict": {}, "list": [], "tuple": (), "array": np.array([])},
    "empty 2-d array": np.empty((0, 3)),
    "0-d array": np.array(2.5),
    "0-d nan array": [np.array(np.nan)],
    "3-d array": np.where(np.arange(24) == 5, np.nan, np.arange(24.0)).reshape(2, 3, 4),
    "int and bool arrays": [np.arange(4), np.array([True, False])],
    "tuples": (1, (2.0, "x"), (), ((np.inf,),)),
    "float64 scalars in a list": [np.float64(0.1), np.float64("nan"), np.float64(-0.0), 1.5],
    "float64 scalar": np.float64(1 / 3),
    "int keys": {1: "a", 2: [1, 2], 30: {}},
    "other keys": {True: 1, False: 2, None: 3, 1.5: 4, "s": 5},
    "true false none": [True, False, None, 0, -3, 2**70],
    "string": 'a "quoted" \\ backslash, caf\u00e9 \u2211 \U0001d53c\n\ttab',
    "mixed nesting": {"x": [[1.0, 2.0], [3]], "y": [{"a": 1}, [], {}], "z": [1, [2.0]]},
}


@pytest.mark.parametrize("case", list(JSON_PANEL))
def test_write_json_is_json_dumps_of_plain_data(case):
    out = io.StringIO()
    write_json(out, JSON_PANEL[case])
    assert out.getvalue() == json.dumps(plain(JSON_PANEL[case]), indent=2) + "\n"


@pytest.mark.parametrize("name", zoo.names())
def test_write_json_is_json_dump_on_zoo_files(name):
    entry = zoo.build(name)
    for data in (model_to_dict(entry.model), function_to_dict(entry.f)):
        out = io.StringIO()
        write_json(out, data)
        assert out.getvalue() == json.dumps(data, indent=2) + "\n"
