import numpy as np
import pytest
from numpy.testing import assert_allclose

from fkbench import tolerances as tol
from fkbench.engine import (
    RunConfig,
    doob_terms,
    increasing_increments,
    init_particles,
    martingale_increments,
    sampling_error,
    simulate,
    simulate_replicates,
    step_particles,
)
from fkbench.errors import DegenerateFunction, FlowConsistencyError
from fkbench.flow import (
    analyze,
    conditional_variance,
    exact_flow,
    limiting_increasing_process,
    mckean_kernel,
    step_phi,
)
from fkbench.model import McKeanSpec, make_function, make_model
from fkbench.zoo import build


class TestInit:
    def test_point_mass_initial_law(self):
        model = make_model([1.0, 0.0], [np.eye(2)], [np.ones(2)] * 2)
        cloud = init_particles(RunConfig(50, 3, 1), model)
        assert np.all(cloud.states == 0)

    def test_initial_frequency(self):
        model = make_model([0.5, 0.5], [], [np.ones(2)])
        cloud = init_particles(RunConfig(100_000, 9, 0), model)
        freq = cloud.empirical()[0]
        se = 0.5 / np.sqrt(100_000)
        assert abs(freq - 0.5) <= 5 * se

    def test_same_seed_same_cloud(self):
        model = make_model([0.5, 0.5], [], [np.ones(2)])
        a = init_particles(RunConfig(1000, 11, 0), model)
        b = init_particles(RunConfig(1000, 11, 0), model)
        assert np.array_equal(a.states, b.states)

    def test_bad_population(self):
        model = make_model([1.0], [], [np.ones(1)])
        with pytest.raises(ValueError):
            init_particles(RunConfig(0, 1, 0), model)


class TestStep:
    def test_singleton_spaces_stay_trivial(self):
        model = make_model([1.0], [np.ones((1, 1))] * 3, [np.ones(1)] * 4)
        spec = McKeanSpec.zero(3)
        f = make_function([[0.5]] * 4)
        trace = simulate(RunConfig(20, 5, 3), model, spec)
        assert all(c.tolist() == [20] for c in trace.counts)
        assert_allclose(martingale_increments(trace, model, spec, f), 0.0)
        assert_allclose(increasing_increments(trace, model, spec, f), 0.0)

    def test_conditional_mean_matches_exact_update(self, two_state):
        # freeze a cloud, redraw the next step many times: the average
        # empirical mean must match the exact one-step prediction
        model, spec, f = two_state
        config = RunConfig(200, 13, 2)
        frozen = init_particles(config, model, replicate=0)
        predicted = float(step_phi(model, frozen.empirical(), 0) @ f.values[1])
        draws = np.empty(10_000)
        for rep in range(10_000):
            nxt = step_particles(frozen, model, spec, config, replicate=rep)
            draws[rep] = nxt.empirical() @ f.values[1]
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - predicted) <= 5 * se

    def test_horizon_cap(self, two_state):
        model, spec, _ = two_state
        with pytest.raises(ValueError):
            simulate(RunConfig(10, 1, 3), model, spec)


class TestMartingaleIncrement:
    def test_constant_function_gives_zero(self, two_state):
        model, spec, _ = two_state
        f = make_function([np.ones(2)] * 3)
        config = RunConfig(100, 21, 2)
        prev = init_particles(config, model)
        nxt = step_particles(prev, model, spec, config)
        assert sampling_error(model, model.eta0, prev.empirical(), 0, f.values[0]) == 0.0
        assert (
            sampling_error(model, prev.empirical(), nxt.empirical(), 1, f.values[1])
            == 0.0
        )

    def test_single_particle_reduction(self, two_state):
        model, spec, f = two_state
        config = RunConfig(1, 33, 2)
        prev = init_particles(config, model)
        nxt = step_particles(prev, model, spec, config)
        K = mckean_kernel(model, spec, prev.empirical(), 0)
        expected = f.values[1][nxt.states[0]] - (K @ f.values[1])[prev.states[0]]
        assert_allclose(
            sampling_error(model, prev.empirical(), nxt.empirical(), 1, f.values[1]),
            expected,
            atol=tol.ALGEBRA,
        )

    def test_frozen_cloud_mean_zero_and_variance(self, two_state):
        # against a frozen previous cloud, the realized increments must have
        # conditional mean zero and conditional variance equal to the exact
        # finite-space increment divided by the population size
        model, spec, f = two_state
        config = RunConfig(100, 17, 2)
        frozen = init_particles(config, model)
        incs = np.empty(10_000)
        for rep in range(10_000):
            nxt = step_particles(frozen, model, spec, config, replicate=rep)
            incs[rep] = sampling_error(
                model, frozen.empirical(), nxt.empirical(), 1, f.values[1]
            )
        se = incs.std(ddof=1) / np.sqrt(len(incs))
        assert abs(incs.mean()) <= 5 * se

        exact_var = (
            conditional_variance(model, spec, frozen.empirical(), 1, f.values[1]) / 100
        )
        sq = (incs - incs.mean()) ** 2
        se_var = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(incs.var(ddof=1) - exact_var) <= 5 * se_var


class TestIncreasingProcess:
    def test_constant_function_gives_zero(self, two_state):
        model, spec, _ = two_state
        f = make_function([np.ones(2)] * 3)
        assert conditional_variance(model, spec, model.eta0, 0, f.values[0]) == 0.0

    def test_initial_increment_is_initial_variance(self, two_state):
        model, spec, f = two_state
        expected = 0.25  # variance of the indicator under (0.5, 0.5)
        assert_allclose(
            conditional_variance(model, spec, model.eta0, 0, f.values[0]), expected
        )

    def test_full_weight_reduces_to_chain_variance(self):
        # eps*G = 1 makes the particle kernel the chain kernel itself
        entry = build("plain_markov", eps=1.0)
        model, spec, f = entry.model, entry.spec, entry.f
        config = RunConfig(300, 7, 5)
        prev = init_particles(config, model)
        mu = prev.empirical()
        M = model.kernels[0]
        v = f.values[1]
        expected = float(mu @ (M @ (v * v) - (M @ v) ** 2))
        assert_allclose(
            conditional_variance(model, spec, prev.empirical(), 1, f.values[1]),
            expected,
            atol=tol.ALGEBRA,
        )

    def test_converges_to_limit(self, two_state):
        model, spec, f = two_state
        flow = exact_flow(model)
        limit = limiting_increasing_process(model, spec, flow.etas, f, 2).sum()
        errs = []
        for N in (100, 10_000):
            stats = simulate_replicates(
                RunConfig(N, 29, 2), model, spec, f, 50
            )
            errs.append(np.median([abs(s.c_total - limit) for s in stats]))
        assert errs[1] < errs[0]

    def test_converges_to_limit_with_mixed_kernel(self):
        # nonzero mixing weights: particles move through the two-part kernel,
        # and the realized increasing process still finds the exact limit
        entry = build("ring_walk")
        model, spec, f = entry.model, entry.spec, entry.f
        assert max(spec.epsilons) > 0.0
        n = model.horizon
        flow = exact_flow(model)
        limit = limiting_increasing_process(model, spec, flow.etas, f, n).sum()
        stats = simulate_replicates(RunConfig(20_000, 71, n), model, spec, f, 8)
        worst = max(abs(s.c_total - limit) for s in stats)
        assert worst < 0.02 * limit


class TestDoob:
    def test_identities_per_run(self, two_state):
        model, spec, f = two_state
        flow = analyze(model, spec, f, terminal=2)
        config = RunConfig(250, 101, 2)
        for rep in range(25):
            trace = simulate(config, model, spec, replicate=rep)
            series = doob_terms(trace, flow, model, f, 2)
            assert series.residual_mean <= tol.PRODUCT
            assert series.residual_field <= tol.PRODUCT
            # realized increasing process never decreases
            assert np.all(increasing_increments(trace, model, spec, f) >= -1e-15)

    def test_terminal_field_is_plain_error(self, two_state):
        model, spec, f = two_state
        flow = analyze(model, spec, f, terminal=2)
        config = RunConfig(250, 77, 2)
        trace = simulate(config, model, spec)
        series = doob_terms(trace, flow, model, f, 2)
        expected = np.sqrt(250) * float(
            (trace.empirical(2) - flow.etas[2]) @ f.values[2]
        )
        assert_allclose(series.w[2], expected, atol=tol.PRODUCT)


    def test_rejects_analytics_for_another_terminal(self, two_state):
        model, spec, f = two_state
        flow = analyze(model, spec, f, terminal=1)
        trace = simulate(RunConfig(50, 3, 2), model, spec)
        with pytest.raises(FlowConsistencyError):
            doob_terms(trace, flow, model, f, 2)


class TestReplicates:
    def test_single_rep_matches_direct_run(self, two_state):
        model, spec, f = two_state
        flow = analyze(model, spec, f, terminal=2)
        config = RunConfig(100, 5, 2)
        stats = simulate_replicates(config, model, spec, f, 1, flow=flow)
        trace = simulate(config, model, spec, replicate=0)
        series = doob_terms(trace, flow, model, f, 2)
        assert stats[0].w == series.w[2]
        assert stats[0].l_terminal == series.l[2]

    def test_deterministic_output(self, two_state):
        model, spec, f = two_state
        a = simulate_replicates(RunConfig(100, 5, 2), model, spec, f, 10)
        b = simulate_replicates(RunConfig(100, 5, 2), model, spec, f, 10)
        assert a == b

    def test_thread_count_does_not_change_results(self, two_state):
        model, spec, f = two_state
        a = simulate_replicates(RunConfig(100, 5, 2), model, spec, f, 8)
        b = simulate_replicates(RunConfig(100, 5, 2), model, spec, f, 8, threads=4)
        assert a == b

    def test_centering_over_replicates(self, two_state):
        model, spec, f = two_state
        flow = analyze(model, spec, f, terminal=2)
        stats = simulate_replicates(
            RunConfig(50, 23, 2), model, spec, f, 2000, flow=flow
        )
        w = np.array([s.w for s in stats])
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean()) <= 5 * se

    def test_degenerate_function_rejected(self, two_state):
        model, spec, _ = two_state
        f = make_function([np.ones(2)] * 3)
        with pytest.raises(DegenerateFunction):
            simulate_replicates(
                RunConfig(50, 1, 2), model, spec, f, 2, normalize=True
            )

    def test_bad_rep_count(self, two_state):
        model, spec, f = two_state
        with pytest.raises(ValueError):
            simulate_replicates(RunConfig(50, 1, 2), model, spec, f, 0)
