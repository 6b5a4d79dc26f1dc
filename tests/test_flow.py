import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose
from scipy.spatial.distance import pdist

from fkbench import tolerances as tol
from fkbench.errors import EpsilonOutOfRange, ZeroMass
from fkbench.flow import (
    analyze,
    boltzmann_gibbs,
    concentration_b,
    contraction_tables,
    _pair_distances,
    _transport_step,
    exact_flow,
    limiting_variance,
    step_phi,
    transport,
)
from fkbench.model import make_function, make_model, truncate
from fkbench.zoo import build

from .oracles import (
    compatibility_residual,
    dobrushin_beta,
    mckean_kernel,
    pdist_beta,
    reference_tables,
    variance_by_enumeration,
)
from .test_draw_ledger import LEDGER

VERSIONS = f"numpy {np.__version__}, scipy {scipy.__version__}"
# the draw ledger's panel, mixed binary_hmm and path_genealogy(horizon=6) included
TABLE_PANEL = {
    **{name: (zoo_name, params) for name, (zoo_name, params, _) in LEDGER.items()},
    "ring_walk d 16 horizon 40": ("ring_walk", {"d": 16, "horizon": 40}),
}


class TestBoltzmannGibbs:
    def test_constant_potential_is_identity(self, flat_two_state):
        model, _ = flat_two_state
        assert_allclose(boltzmann_gibbs(model, [0.5, 0.5], 0), [0.5, 0.5])

    def test_hand_normalization(self, two_state):
        model, _ = two_state
        assert_allclose(boltzmann_gibbs(model, [0.5, 0.5], 0), [0.2, 0.8])

    def test_point_mass_fixed(self, two_state):
        model, _ = two_state
        assert_allclose(boltzmann_gibbs(model, [1.0, 0.0], 0), [1.0, 0.0])

    def test_zero_mass_guard(self, two_state):
        model, _ = two_state
        with pytest.raises(ZeroMass):
            boltzmann_gibbs(model, [0.0, 0.0], 0)


class TestStepPhi:
    def test_identity_kernel_constant_potential(self):
        model = make_model([0.3, 0.7], [np.eye(2)], [np.ones(2)] * 2)
        assert_allclose(step_phi(model, [0.3, 0.7], 0), [0.3, 0.7])

    def test_hand_value(self, two_state):
        model, _ = two_state
        assert_allclose(step_phi(model, [0.5, 0.5], 0), [0.4, 0.6])

    def test_point_mass_gives_kernel_row(self, flat_two_state):
        model, _ = flat_two_state
        assert_allclose(step_phi(model, [0.0, 1.0], 0), model.kernels[0][1])


class TestExactFlow:
    def test_unit_potentials_reduce_to_chain(self, flat_two_state):
        model, _ = flat_two_state
        flow = exact_flow(model)
        assert_allclose(flow.etas[1], model.eta0 @ model.kernels[0])
        assert_allclose(flow.log_gamma1, [0.0, 0.0], atol=tol.ALGEBRA)

    def test_two_state_hand_recursion(self, two_state):
        model, _ = two_state
        flow = exact_flow(model)
        assert_allclose(flow.etas[1], [0.4, 0.6])
        assert_allclose(flow.log_gamma1[1], np.log(1.25), atol=tol.ALGEBRA)

    def test_horizon_zero(self):
        model = make_model([0.3, 0.7], [], [np.ones(2)])
        flow = exact_flow(model)
        assert_allclose(flow.etas[0], [0.3, 0.7])
        assert flow.log_gamma1.tolist() == [0.0]

    def test_flow_conservation(self, two_state):
        model, _ = two_state
        flow = exact_flow(model)
        for eta in flow.etas:
            assert abs(eta.sum() - 1.0) <= tol.ALGEBRA


class TestMcKeanKernel:
    def test_eps_zero_rows_equal_update(self, two_state):
        model, _ = two_state
        mu = np.array([0.5, 0.5])
        K = mckean_kernel(model, mu, 0)
        target = step_phi(model, mu, 0)
        assert_allclose(K, np.tile(target, (2, 1)))

    def test_full_weight_recovers_kernel(self, flat_two_state):
        model, _ = flat_two_state
        K = mckean_kernel(replace(model, epsilons=(1.0,)), [0.5, 0.5], 0)
        assert_allclose(K, model.kernels[0])

    def test_hand_mixture(self, two_state):
        model, _ = two_state
        K = mckean_kernel(replace(model, epsilons=(0.25, 0.0)), [0.5, 0.5], 0)
        # weights eps*G = (0.125, 0.5) against the updated law (0.4, 0.6)
        assert_allclose(K[0], [0.45, 0.55])
        assert_allclose(K[1], [0.35, 0.65])
        assert_allclose(K.sum(axis=1), [1.0, 1.0], atol=tol.ALGEBRA)

    def test_eps_out_of_range(self, two_state):
        model, _ = two_state
        with pytest.raises(EpsilonOutOfRange):
            mckean_kernel(replace(model, epsilons=(0.6, 0.0)), [0.5, 0.5], 0)


class TestCompatibility:
    def test_eps_zero_exact(self, two_state):
        model, _ = two_state
        assert compatibility_residual(model, [0.7, 0.3], 0) == 0.0

    def test_point_mass(self, two_state):
        model, _ = two_state
        model = replace(model, epsilons=(0.4, 0.4))
        assert compatibility_residual(model, [1.0, 0.0], 0) <= tol.ALGEBRA

    def test_random_measures(self, two_state):
        model, _ = two_state
        rng = np.random.default_rng(2)
        for _ in range(100):
            mu = rng.dirichlet(np.ones(2))
            eps = rng.uniform(0.0, 0.5)  # eps * max(G) = 2 eps <= 1
            mixed = replace(model, epsilons=(eps, eps))
            for n in range(2):
                assert compatibility_residual(mixed, mu, n) <= tol.ALGEBRA


class TestSemigroups:
    def test_terminal_block_is_identity(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        tables = contraction_tables(model, flow.etas)
        assert_allclose(transport(model, flow.etas, 2, 2), np.eye(2))
        centered = f.values[2] - flow.etas[2] @ f.values[2]
        assert_allclose(flow.fpn[2], centered)
        assert tables.betas[2, 2] == 1.0
        assert tables.ratios[2, 2] == 1.0

    def test_flat_chain_contraction(self, flat_two_state):
        model, f = flat_two_state
        tables = contraction_tables(model, exact_flow(model).etas)
        assert_allclose(tables.betas[0, 1], 0.5, atol=tol.ALGEBRA)
        assert_allclose(tables.ratios[0, 1], 1.0, atol=tol.ALGEBRA)

    def test_singleton_state_space_beta_zero(self):
        model = make_model([1.0], [np.ones((1, 1))], [np.ones(1)] * 2)
        tables = contraction_tables(model, exact_flow(model).etas)
        assert tables.betas[0, 0] == 0.0

    def test_consistency_and_centering(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        H = model.horizon
        for p in range(H + 1):
            for n in range(p, H + 1):
                assert_allclose(
                    flow.etas[p] @ transport(model, flow.etas, p, n),
                    flow.etas[n],
                    atol=tol.PRODUCT,
                )
        for p in range(H + 1):
            assert abs(flow.etas[p] @ flow.fpn[p]) <= tol.PRODUCT

    def test_one_step_mass_identity(self, two_state):
        model, f = two_state
        flow = exact_flow(model)
        for q in range(1, model.horizon + 1):
            lhs = transport(model, flow.etas, q - 1, q).sum(axis=1)
            rhs = model.potentials[q - 1] / (flow.etas[q - 1] @ model.potentials[q - 1])
            assert_allclose(lhs, rhs, atol=tol.ALGEBRA)

    def test_beta_submultiplicative(self, two_state):
        model, f = two_state
        tables = contraction_tables(model, exact_flow(model).etas)
        H = model.horizon
        for p in range(H + 1):
            for q in range(p, H + 1):
                for n in range(q, H + 1):
                    assert (
                        tables.betas[p, n]
                        <= tables.betas[p, q] * tables.betas[q, n] + tol.PRODUCT
                    )


def _tables_by_transport(model, etas):
    """Reference tables: every transport rebuilt on its own, pairwise row loop."""
    H = model.horizon
    betas = np.full((H + 1, H + 1), np.nan)
    ratios = np.full((H + 1, H + 1), np.nan)
    for p in range(H + 1):
        for n in range(p, H + 1):
            Q = transport(model, etas, p, n)
            mass = Q.sum(axis=1)
            rows = Q / mass[:, None]
            ratios[p, n] = mass.max() / mass.min()
            betas[p, n] = max(
                (0.5 * np.abs(rows[x] - rows[y]).sum()
                 for x, y in itertools.combinations(range(len(rows)), 2)),
                default=0.0,
            )
    return betas, ratios


class TestStreamedOracle:
    def test_tables_match_per_pair_transport(self, two_state):
        path = build("path_genealogy", horizon=4)
        for model in (two_state[0], path.model):
            etas = exact_flow(model).etas
            tables = contraction_tables(model, etas)
            betas, ratios = _tables_by_transport(model, etas)
            assert_allclose(tables.betas, betas, rtol=tol.PRODUCT, atol=tol.PRODUCT)
            assert_allclose(tables.ratios, ratios, rtol=tol.PRODUCT, atol=tol.PRODUCT)

    @pytest.mark.parametrize("terminal", [None, 2])
    def test_backward_sweep_matches_transport(self, terminal):
        entry = build("path_genealogy", horizon=4)
        model, f = entry.model, entry.f
        if terminal is not None:
            model = truncate(model, terminal)
        flow = analyze(model, f)
        n = model.horizon
        centered = f.values[n] - flow.etas[n] @ f.values[n]
        for p in range(n + 1):
            assert_allclose(
                flow.fpn[p],
                transport(model, flow.etas, p, n) @ centered,
                atol=tol.PRODUCT,
            )

    @pytest.mark.parametrize(
        "name, params",
        [("path_genealogy", {"horizon": 4}), ("ring_walk", {"eps_scale": 1.0})],
    )
    def test_truncated_model_is_the_prefix(self, name, params):
        # analyzing truncate(model, n) gives, bit for bit, the sweep
        # from terminal n over the longer model's own flow
        entry = build(name, **params)
        model, f = entry.model, entry.f
        full = exact_flow(model)
        for n in range(model.horizon + 1):
            cut = analyze(truncate(model, n), f)
            fpn = [f.values[n] - float(full.etas[n] @ f.values[n])]
            for p in range(n - 1, -1, -1):
                fpn.insert(0, _transport_step(model, full.etas, p) @ fpn[0])
            delta = limiting_variance(model, full.etas, fpn)
            assert len(cut.etas) - 1 == n
            for got, expected in [
                *zip(cut.etas, full.etas),
                *zip(cut.fpn, fpn, strict=True),
                (cut.log_gamma1, full.log_gamma1[: n + 1]),
                (cut.deltaC, delta),
            ]:
                assert np.array_equal(got, expected)
            assert cut.sigma_sq == float(delta.sum())

    def test_tables_memory_is_linear_in_horizon(self):
        # the bands of every transport into time n, and their row pairs, are
        # held at once: (H+1) d x d blocks and (H+1) d(d-1)/2 distances
        entry = build("ring_walk", d=16, horizon=300)
        etas = exact_flow(entry.model).etas
        tracemalloc.start()
        try:
            contraction_tables(entry.model, etas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_analyze_memory_is_linear_in_horizon(self):
        # the stored (p, n) transport table would hold (H+1)(H+2)/2 dense
        # d x d matrices here, about 16 GB
        entry = build("ring_walk", d=64, horizon=1000)
        tracemalloc.start()
        try:
            analyze(entry.model, entry.f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def random_markov(rng, rows, cols):
    return rng.dirichlet(np.full(cols, rng.choice([0.2, 1.0, 5.0])), size=rows)


def assert_tables_match_pdist(model, label):
    etas = exact_flow(model).etas
    tables = contraction_tables(model, etas)
    betas, ratios = reference_tables(model, etas)
    for name, got, expected in [("betas", tables.betas, betas), ("ratios", tables.ratios, ratios)]:
        assert np.array_equal(got, expected, equal_nan=True), (
            f"{label}: {name} differ from one pdist call per (p, n) under {VERSIONS}"
        )


class TestTablesEqualPdist:
    @pytest.mark.parametrize("name", list(TABLE_PANEL))
    def test_zoo_tables(self, name):
        zoo_name, params = TABLE_PANEL[name]
        assert_tables_match_pdist(build(zoo_name, **params).model, name)

    def test_random_models_of_mixed_dimensions(self):
        # runs of bands of several sizes, and steps onto one state, whose
        # products are matrix-vector calls
        rng = np.random.default_rng(29)
        for _ in range(100):
            dims = rng.integers(1, 13, size=rng.integers(1, 7))
            model = make_model(
                rng.dirichlet(np.ones(dims[0])),
                [random_markov(rng, a, b) for a, b in zip(dims[:-1], dims[1:])],
                [rng.uniform(0.1, 3.0, d) for d in dims],
            )
            assert_tables_match_pdist(model, f"dims {dims.tolist()}")


def pair_distances_by_fresh_arrays(P):
    """_pair_distances with each column's difference and its absolute value in new arrays."""
    first, second = np.triu_indices(P.shape[-2], 1)
    dist = np.zeros((len(first), *P.shape[:-2]))
    for col in np.ascontiguousarray(P.T):
        dist += np.abs(col.take(first, axis=0) - col.take(second, axis=0))
    return dist


class TestPairDistances:
    @pytest.mark.parametrize("shape", [(300, 16, 16), (60, 64, 64), (16, 16), (40, 7)])
    def test_in_place_columns_change_no_bit(self, shape):
        rng = np.random.default_rng(34)
        P = random_markov(rng, int(np.prod(shape[:-1])), shape[-1]).reshape(shape)
        got = _pair_distances(P)
        assert np.array_equal(got, pair_distances_by_fresh_arrays(P)), f"{shape} under {VERSIONS}"
        stack = P.reshape(-1, *shape[-2:])
        by_pdist = np.stack([pdist(m, "cityblock") for m in stack], axis=-1)
        assert np.array_equal(got.reshape(by_pdist.shape), by_pdist), f"{shape} under {VERSIONS}"


class TestDobrushinBeta:
    def test_identity_rows(self):
        assert dobrushin_beta(np.eye(3)) == 1.0

    def test_equal_rows(self):
        assert dobrushin_beta(np.tile([0.2, 0.8], (4, 1))) == 0.0

    def test_half_l1(self):
        P = np.array([[0.8, 0.2], [0.3, 0.7]])
        assert_allclose(dobrushin_beta(P), 0.5)

    def test_equals_half_the_largest_pdist(self):
        # 0 to 60 rows: a matrix of fewer than two rows gives 0.0
        rng = np.random.default_rng(2005)
        shapes = [(0, 3), (1, 2), *rng.integers(1, 61, size=(1500, 2))]
        for P in (random_markov(rng, *shape) for shape in shapes):
            assert dobrushin_beta(P) == pdist_beta(P), f"{P.shape} under {VERSIONS}"
        assert dobrushin_beta(np.empty((0, 3))) == dobrushin_beta(np.ones((1, 1))) == 0.0


class TestLimitingVariance:
    def test_constant_function_gives_zero(self, two_state):
        model, _ = two_state
        f = make_function([np.ones(2)] * 3)
        flow = analyze(model, f)
        assert abs(flow.sigma_sq) <= tol.ALGEBRA

    def test_initial_term_is_initial_variance(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        v = flow.fpn[0]
        expected = model.eta0 @ (v * v) - (model.eta0 @ v) ** 2
        assert_allclose(flow.deltaC[0], expected, atol=tol.ALGEBRA)

    def test_frozen_two_state_value(self, two_state):
        # brute-force path-enumeration value, frozen
        model, f = two_state
        flow = analyze(model, f)
        assert_allclose(
            flow.deltaC,
            [0.001665972511453565, 0.015618492294877155, 0.23346938775510204],
            atol=tol.PRODUCT,
        )
        assert_allclose(flow.sigma_sq, 0.25075385256143273, atol=tol.PRODUCT)

    def test_against_enumeration_oracle(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        increments, total = variance_by_enumeration(model, f, 2)
        assert_allclose(flow.deltaC, increments, atol=tol.PRODUCT)
        assert_allclose(flow.sigma_sq, total, atol=tol.PRODUCT)

    def test_increments_nonnegative(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        assert np.all(flow.deltaC >= -1e-14)

    def test_raw_family_increasing_process(self, two_state):
        # hand recursion: variance of the indicator under eta_p for eps = 0
        model, f = two_state
        flow = exact_flow(model)
        inc = limiting_variance(model, flow.etas, f.values)
        assert_allclose(
            inc, [0.25, 0.24, 0.23346938775510204], atol=tol.ALGEBRA
        )
        # one term per time: a prefix of the flow gives a prefix
        prefix = limiting_variance(model, flow.etas[:2], f.values[:2])
        assert np.array_equal(prefix, inc[:2])


class TestConcentrationB:
    def test_flat_chain_value(self, flat_two_state):
        model, f = flat_two_state
        tables = contraction_tables(model, exact_flow(model).etas)
        assert_allclose(concentration_b(tables, 1), 3.0, atol=tol.ALGEBRA)

    def test_singleton_is_zero(self):
        model = make_model([1.0], [], [np.ones(1)])
        tables = contraction_tables(model, exact_flow(model).etas)
        assert concentration_b(tables, 0) == 0.0

    def test_nonnegative_and_monotone_terms(self, two_state):
        model, f = two_state
        tables = contraction_tables(model, exact_flow(model).etas)
        values = [concentration_b(tables, n) for n in range(3)]
        assert all(v >= 0.0 for v in values)
        # each term of the defining sum is nonnegative
        for n in range(3):
            q = np.arange(n + 1)
            assert np.all(tables.ratios[q, n] * tables.betas[q, n] >= 0.0)
