import inspect

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fkbench import tolerances as tol
from fkbench import zoo
from fkbench.bounds import mixing_bounds
from fkbench.errors import HorizonTooLargeForPathSpace, UnknownEntry
from fkbench.flow import analyze, contraction_tables, exact_flow
from fkbench.model import model_from_dict, model_to_dict, validate_model
from fkbench.zoo import (
    build,
    names,
    path_decode,
    path_last_state,
)

from .oracles import path_encode


def test_names_complete():
    assert names() == [
        "binary_hmm",
        "iid_reduction",
        "path_genealogy",
        "plain_markov",
        "ring_walk",
    ]


@pytest.mark.parametrize("name", names())
def test_every_entry_valid_and_nondegenerate(name):
    entry = build(name)
    validate_model(entry.model)
    flow = analyze(entry.model, entry.f)
    assert flow.sigma_sq > 0.0


# builder parameters the entry derives rather than takes
DERIVED = {"binary_hmm": {"observations"}, "path_genealogy": {"observations"}}


@pytest.mark.parametrize("name", names())
def test_entry_params_are_the_typed_signature(name):
    builder = getattr(zoo, name)
    defaults = {k: p.default for k, p in inspect.signature(builder).parameters.items()}
    # every default is an int or a float, so typing by default covers each parameter
    assert all(type(v) in (int, float) for v in defaults.values())
    entry = build(name)
    assert entry.name == name
    assert set(entry.params) == set(defaults) | DERIVED.get(name, set())
    assert {k: (type(entry.params[k]), entry.params[k]) for k in defaults} == {
        k: (type(v), v) for k, v in defaults.items()
    }
    direct = builder()
    assert direct.params == entry.params
    assert model_to_dict(direct.model) == model_to_dict(entry.model)


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        build("nope")


def test_plain_markov_reduces_to_chain_law():
    entry = build("plain_markov")
    flow = exact_flow(entry.model)
    law = entry.model.eta0.copy()
    for n, kernel in enumerate(entry.model.kernels, start=1):
        law = law @ kernel
        assert_allclose(flow.etas[n], law, atol=tol.ALGEBRA)
    assert_allclose(flow.log_gamma1, 0.0, atol=tol.ALGEBRA)


def test_iid_reduction_is_horizon_zero():
    entry = build("iid_reduction", p=0.3)
    assert entry.model.horizon == 0
    assert_allclose(entry.model.eta0, [0.7, 0.3])
    assert entry.model.epsilons == ()


def test_path_codes_roundtrip():
    for n in range(4):
        for code in range(2 ** (n + 1)):
            coords = path_decode(code, n)
            assert len(coords) == n + 1
            assert path_encode(coords) == code
            assert coords[-1] == path_last_state(code, n)


@pytest.mark.parametrize("horizon", [1, 3, 6])
def test_path_marginal_matches_flat_model(horizon):
    flat = build("binary_hmm", horizon=horizon)
    deep = build("path_genealogy", horizon=horizon)
    assert deep.params["observations"] == flat.params["observations"]
    flat_flow = exact_flow(flat.model)
    deep_flow = exact_flow(deep.model)
    for n in range(horizon + 1):
        last = np.array([path_last_state(c, n) for c in range(2 ** (n + 1))])
        marginal = np.array(
            [deep_flow.etas[n][last == x].sum() for x in range(2)]
        )
        assert_allclose(marginal, flat_flow.etas[n], atol=tol.ALGEBRA)
    assert_allclose(
        deep_flow.log_gamma1, flat_flow.log_gamma1, atol=tol.ALGEBRA
    )


def test_path_horizon_cap():
    with pytest.raises(HorizonTooLargeForPathSpace):
        build("path_genealogy", horizon=9)


def test_ring_walk_mixing_certificate():
    entry = build("ring_walk", d=4, holding=0.5)
    tables = contraction_tables(entry.model, exact_flow(entry.model).etas)
    mb = mixing_bounds(
        m=2, r=2.0, rho=1.0 / 3.0, n=entry.model.horizon,
        model=entry.model, flow=tables,
    )
    assert mb.r_check and mb.b_check and mb.a3_check


def test_entries_reproducible_and_exportable():
    a = build("binary_hmm")
    b = build("binary_hmm")
    assert a.params == b.params
    for ka, kb in zip(a.model.potentials, b.model.potentials):
        assert_allclose(ka, kb)
    model = model_from_dict(model_to_dict(a.model))
    assert model.dims == a.model.dims
    assert model.epsilons == a.model.epsilons
