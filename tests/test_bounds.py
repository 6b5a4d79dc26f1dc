import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fkbench import tolerances as tol
from fkbench.bounds import (
    GAMMA,
    GAMMA_COMBINED,
    GAMMA_PRIME,
    GAMMA_TILDE,
    a3_constant,
    burkholder_d,
    check_minorization,
    mixing_bounds,
)
from fkbench.errors import ConfigError, HypothesisNotSatisfied
from fkbench.flow import (
    concentration_b,
    contraction_tables,
    exact_flow,
    step_phi,
)
from fkbench.model import make_model
from fkbench.zoo import build

from .oracles import mckean_kernel


class TestBurkholderD:
    @pytest.mark.parametrize("p, expected", [(1, 1.0), (2, 1.0), (4, 3.0)])
    def test_known_values(self, p, expected):
        assert_allclose(burkholder_d(p), expected, atol=tol.ALGEBRA)

    def test_d3_from_falling_factorial(self):
        # (3)_2 / sqrt(3/2) * 2^(-3/2) = 6 / (sqrt(1.5) * 2*sqrt(2)) = sqrt(3)
        assert_allclose(burkholder_d(3), math.sqrt(3.0), atol=tol.ALGEBRA)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            burkholder_d(0)


class TestMcKeanGamma:
    def test_constant_eps_masses(self):
        assert GAMMA == 0.0
        assert GAMMA_PRIME == 1.0
        assert GAMMA_COMBINED == 1.0
        assert GAMMA_TILDE == 2.0

    def test_a3_matches_formula(self, two_state):
        model, f = two_state
        tables = contraction_tables(model, exact_flow(model).etas)
        expected = (
            4.0
            * math.sqrt(2.0)
            * 2.0
            * max(concentration_b(tables, 1), concentration_b(tables, 2))
            / 2.0
        )
        assert_allclose(a3_constant(tables, 2), expected, atol=tol.ALGEBRA)


class TestKernelRegularity:
    def test_one_step_difference_bound(self, two_state):
        # |K_mu(f) - K_eta(f)| <= |updated-mu mean of the centered f|,
        # evaluated exactly for random measures and unit-oscillation f
        model = replace(two_state[0], epsilons=(0.3, 0.1))
        flow = exact_flow(model)
        rng = np.random.default_rng(5)
        for n in range(2):
            for _ in range(50):
                mu = rng.dirichlet(np.ones(2))
                v = rng.normal(size=2)
                v /= v.max() - v.min()  # oscillation exactly 1
                k_mu = mckean_kernel(model, mu, n) @ v
                k_eta = mckean_kernel(model, flow.etas[n], n) @ v
                h = v - float(flow.etas[n + 1] @ v)
                rhs = abs(float(step_phi(model, mu, n) @ h))
                assert np.max(np.abs(k_mu - k_eta)) <= rhs + tol.ALGEBRA


class TestMixingBounds:
    def test_doubly_trivial_chain(self):
        mb = mixing_bounds(m=1, r=1.0, rho=1.0, n=3)
        assert mb.r_bound == 1.0
        assert mb.b_bound == 2.0
        assert mb.beta_bounds is None  # base is zero, bound vacuous

    def test_arithmetic(self):
        mb = mixing_bounds(m=1, r=4.0, rho=0.3, n=2)
        assert_allclose(mb.b_bound, 2.0 * 4.0 / 0.027)
        assert_allclose(mb.r_bound, 4.0 / 0.3)
        assert_allclose(mb.a3_bound, 8.0 * math.sqrt(2.0) * 4.0 * 2.0 / 0.027)

    def test_beta_bound_reported_when_contractive(self):
        mb = mixing_bounds(m=1, r=1.0, rho=0.5, n=4)
        assert mb.beta_bounds is not None
        assert_allclose(mb.beta_bounds, 0.75 ** np.arange(5))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mixing_bounds(m=0, r=1.0, rho=0.5, n=1)
        with pytest.raises(ValueError):
            mixing_bounds(m=1, r=0.5, rho=0.5, n=1)
        with pytest.raises(ValueError):
            mixing_bounds(m=1, r=1.0, rho=1.5, n=1)

    def test_ring_walk_two_step_window(self):
        entry = build("ring_walk")
        tables = contraction_tables(entry.model, exact_flow(entry.model).etas)
        mb = mixing_bounds(
            m=2, r=2.0, rho=1.0 / 3.0, n=5, model=entry.model, flow=tables
        )
        assert mb.r_check and mb.b_check and mb.a3_check

    def test_window_longer_than_horizon(self):
        model = build("ring_walk", d=16, horizon=1).model
        tables = contraction_tables(model, exact_flow(model).etas)
        with pytest.raises(ConfigError):  # no window to check: not a vacuous pass
            mixing_bounds(m=2, r=2.0, rho=0.5, n=1, model=model, flow=tables)
        longer = build("ring_walk", d=16, horizon=2).model
        with pytest.raises(HypothesisNotSatisfied):
            mixing_bounds(m=2, r=2.0, rho=0.5, n=2, model=longer)

    def test_minorization_failure(self):
        model = make_model(
            eta0=[0.5, 0.5], kernels=[np.eye(2)] * 2, potentials=[np.ones(2)] * 3
        )
        with pytest.raises(HypothesisNotSatisfied):
            check_minorization(model, 1, 0.1)
        with pytest.raises(HypothesisNotSatisfied):
            mixing_bounds(m=1, r=1.0, rho=0.1, n=1, model=model)

    def test_r_must_cover_potential_ratio(self, two_state):
        model, _ = two_state  # potential ratio 4
        with pytest.raises(HypothesisNotSatisfied):
            mixing_bounds(m=1, r=2.0, rho=0.2, n=1, model=model)
