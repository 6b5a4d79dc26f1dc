import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2, chisquare

from fkbench import tolerances as tol
from fkbench.engine import (
    ReplicateStats,
    RunConfig,
    doob_terms,
    increasing_increments,
    sampling_error,
    simulate,
    simulate_replicates,
    step_counts,
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
from fkbench.lab import stein_experiment
from fkbench.model import (
    McKeanSpec,
    make_function,
    make_model,
    mixing_weights,
    validate_model,
    validate_spec,
)
from fkbench.rng import stream
from fkbench.zoo import build


def _redraw(model, spec, counts, n, seed, reps):
    """reps independent draws of the step n -> n+1 from frozen counts."""
    return np.array(
        [
            step_counts(model, spec, counts, n, stream(seed, rep, n + 1))
            for rep in range(reps)
        ]
    )


def _count_law(kernel, counts):
    """Exact law of the next counts: particle by particle over kernel rows."""
    law = {(0,) * kernel.shape[1]: 1.0}
    for x, c in enumerate(counts):
        for _ in range(c):
            nxt = {}
            for key, prob in law.items():
                for y, k in enumerate(kernel[x]):
                    if k > 0.0:
                        out = list(key)
                        out[y] += 1
                        nxt[tuple(out)] = nxt.get(tuple(out), 0.0) + prob * k
            law = nxt
    return law


class TestInit:
    def test_point_mass_initial_law(self):
        model = make_model([1.0, 0.0], [np.eye(2)], [np.ones(2)] * 2)
        trace = simulate(RunConfig(50, 3, 1), model, McKeanSpec.zero(1))
        assert all(c.tolist() == [[50, 0]] for c in trace.counts)

    def test_initial_frequency(self):
        model = make_model([0.5, 0.5], [], [np.ones(2)])
        trace = simulate(RunConfig(100_000, 9, 0), model, McKeanSpec.zero(0))
        freq = trace.empirical(0)[0, 0]
        se = 0.5 / np.sqrt(100_000)
        assert abs(freq - 0.5) <= 5 * se

    def test_same_seed_same_cloud(self):
        model = make_model([0.5, 0.5], [], [np.ones(2)])
        a = simulate(RunConfig(1000, 11, 0), model, McKeanSpec.zero(0))
        b = simulate(RunConfig(1000, 11, 0), model, McKeanSpec.zero(0))
        assert np.array_equal(a.counts[0], b.counts[0])

    def test_bad_population(self):
        model = make_model([1.0], [], [np.ones(1)])
        with pytest.raises(ValueError):
            simulate(RunConfig(0, 1, 0), model, McKeanSpec.zero(0))


class TestStep:
    def test_singleton_spaces_stay_trivial(self):
        model = make_model([1.0], [np.ones((1, 1))] * 3, [np.ones(1)] * 4)
        spec = McKeanSpec.zero(3)
        f = make_function([[0.5]] * 4)
        trace = simulate(RunConfig(20, 5, 3), model, spec)
        assert all(c.tolist() == [[20]] for c in trace.counts)
        flow = analyze(model, spec, f, terminal=3)
        assert_allclose(doob_terms(trace, flow, model, f, 3).l, 0.0)
        assert_allclose(increasing_increments(trace, model, spec, f), 0.0)

    def test_conditional_mean_matches_exact_update(self, two_state):
        # freeze a cloud, redraw the next step many times: the average
        # empirical mean must match the exact one-step prediction
        model, spec, f = two_state
        frozen = simulate(RunConfig(200, 13, 0), model, spec).counts[0][0]
        predicted = float(step_phi(model, frozen / 200, 0) @ f.values[1])
        draws = _redraw(model, spec, frozen, 0, 13, 10_000) @ f.values[1] / 200
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - predicted) <= 5 * se

    def test_exact_law_of_one_step(self, two_state):
        # the count step has the law of N independent particle moves, each
        # through its own row of the selection/mutation kernel
        ring = build("ring_walk", d=4, eps_scale=1.0)
        cases = [(ring.model, ring.spec, [2, 0, 1, 1]), (*two_state[:2], [3, 2])]
        reps = 40_000
        for model, spec, counts in cases:
            counts = np.array(counts)
            kernel = mckean_kernel(model, spec, counts / counts.sum(), 0)
            law = _count_law(kernel, counts)
            draws = _redraw(model, spec, counts, 0, 41, reps)
            seen = Counter(map(tuple, draws.tolist()))
            assert set(seen) <= set(law)
            expected = reps * np.array(list(law.values()))
            assert expected.min() >= 5.0  # the chi-square approximation holds
            stat = chisquare([seen[c] for c in law], expected).statistic
            assert stat <= chi2.ppf(0.999, len(law) - 1)

    def test_full_weight_moves_each_particle_through_its_row(self):
        # eps*G = 1: no particle resamples, so the count leaving each state
        # is binomial in its own chain row rather than multinomial in the
        # updated law (variance 18.5 against 24.75 here)
        entry = build("plain_markov", eps=1.0)
        model, spec = entry.model, entry.spec
        assert_allclose(mixing_weights(model, spec, 0), 1.0)
        frozen = np.array([50, 50])
        stay = _redraw(model, spec, frozen, 0, 43, 10_000)[:, 0]
        se = stay.std(ddof=1) / np.sqrt(len(stay))
        assert abs(stay.mean() - 55.0) <= 5 * se
        sq = (stay - stay.mean()) ** 2
        se_var = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(stay.var(ddof=1) - 18.5) <= 5 * se_var

    def test_weight_rounded_above_one_steps(self):
        model = make_model([0.5, 0.5], [[[0.8, 0.2], [0.3, 0.7]]], [np.ones(2)] * 2)
        spec = McKeanSpec(epsilons=(1.0 + 0.5e-12,))
        validate_spec(spec, model)
        assert np.all(mixing_weights(model, spec, 0) == 1.0)
        trace = simulate(RunConfig(100, 3, 1), model, spec)
        assert trace.counts[1].sum() == 100

    def test_rounded_probabilities_conserve_population(self):
        for delta in (-1e-13, 0.9e-12):
            model = make_model(
                [0.3 + delta, 0.2, 0.5],
                [[[0.4, 0.6 + delta, 0.0], [0.5 + delta, 0.0, 0.5], [0.1, 0.2, 0.7]]] * 2,
                [np.array([1.0, 2.0, 1.0])] * 3,
            )
            spec = McKeanSpec(epsilons=(0.5, 0.5))
            validate_model(model)
            validate_spec(spec, model)
            for rep in range(50):
                trace = simulate(RunConfig(1000, 2, 2), model, spec, replicate=rep)
                assert [int(c.sum()) for c in trace.counts] == [1000] * 3

    def test_cost_does_not_grow_with_population(self):
        entry = build("binary_hmm")
        config = RunConfig(10**8, 5, entry.model.horizon)
        tracemalloc.start()
        try:
            trace = simulate(config, entry.model, entry.spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(int(c.sum()) == 10**8 for c in trace.counts)
        assert peak < 1_000_000

    def test_horizon_cap(self, two_state):
        model, spec, _ = two_state
        with pytest.raises(ValueError):
            simulate(RunConfig(10, 1, 3), model, spec)


class TestMartingaleIncrement:
    def test_constant_function_gives_zero(self, two_state):
        model, spec, _ = two_state
        f = make_function([np.ones(2)] * 3)
        trace = simulate(RunConfig(100, 21, 1), model, spec)
        prev, nxt = trace.empirical(0), trace.empirical(1)
        assert sampling_error(model, model.eta0, prev, 0, f.values[0]) == 0.0
        # the predicted law sums to one only up to rounding
        assert abs(sampling_error(model, prev, nxt, 1, f.values[1])) <= tol.ALGEBRA

    def test_single_particle_reduction(self, two_state):
        model, spec, f = two_state
        trace = simulate(RunConfig(1, 33, 1), model, spec)
        prev, nxt = (int(np.argmax(c)) for c in trace.counts)
        K = mckean_kernel(model, spec, trace.empirical(0), 0)
        expected = f.values[1][nxt] - (K @ f.values[1])[prev]
        assert_allclose(
            sampling_error(model, trace.empirical(0), trace.empirical(1), 1, f.values[1]),
            expected,
            atol=tol.ALGEBRA,
        )

    def test_frozen_cloud_mean_zero_and_variance(self, two_state):
        # against a frozen previous cloud, the realized increments must have
        # conditional mean zero and conditional variance equal to the exact
        # finite-space increment divided by the population size
        model, spec, f = two_state
        counts = simulate(RunConfig(100, 17, 0), model, spec).counts[0]
        frozen = counts / 100
        redrawn = _redraw(model, spec, counts, 0, 17, 10_000) / 100
        incs = np.array(
            [sampling_error(model, frozen, nxt, 1, f.values[1]) for nxt in redrawn]
        )
        se = incs.std(ddof=1) / np.sqrt(len(incs))
        assert abs(incs.mean()) <= 5 * se

        exact_var = conditional_variance(model, spec, frozen, 1, f.values[1]) / 100
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
        mu = simulate(RunConfig(300, 7, 0), model, spec).empirical(0)[0]
        M = model.kernels[0]
        v = f.values[1]
        expected = float(mu @ (M @ (v * v) - (M @ v) ** 2))
        assert_allclose(
            conditional_variance(model, spec, mu, 1, f.values[1]),
            expected,
            atol=tol.ALGEBRA,
        )

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_matches_formed_kernel(self, eps):
        # the kernel-free form against mu @ (K v^2 - (K v)^2) with K formed,
        # for one measure and for each row of an (R, d) array of measures
        model = make_model(
            [0.3, 0.7],
            [[[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.4], [0.1, 0.9]]],
            [np.array([0.5, 1.0]), np.array([1.0, 0.25]), np.ones(2)],
        )
        spec = McKeanSpec(epsilons=(eps, eps))
        validate_spec(spec, model)
        v = np.array([-1.0, 2.5])
        mus = np.array([[0.5, 0.5], [0.9, 0.1], [0.0, 1.0]])
        for n in (1, 2):
            batch = conditional_variance(model, spec, mus, n, v)
            for mu, got in zip(mus, batch):
                K = mckean_kernel(model, spec, mu, n - 1)
                expected = mu @ (K @ (v * v) - (K @ v) ** 2)
                assert_allclose(got, expected, rtol=0, atol=tol.ALGEBRA)
                assert_allclose(
                    conditional_variance(model, spec, mu, n, v),
                    expected,
                    rtol=0,
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
            errs.append(np.median(np.abs(stats.c_total - limit)))
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
        worst = np.abs(stats.c_total - limit).max()
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
            (trace.empirical(2)[0] - flow.etas[2]) @ f.values[2]
        )
        assert_allclose(series.w[0, 2], expected, atol=tol.PRODUCT)


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
        assert stats.w[0] == series.w[0, 2]
        assert stats.l_terminal[0] == series.l[0, 2]

    @pytest.mark.parametrize(
        "name, params",
        [
            ("two_state", {}),
            ("ring_walk", {"eps_scale": 1.0}),
            ("path_genealogy", {"horizon": 4}),
        ],
    )
    def test_rows_match_single_runs(self, name, params, request):
        # the one pass over R = 37 stacked runs gives, row by row, what the
        # same functions give on each replicate's own R = 1 trace
        if name == "two_state":
            model, spec, f = request.getfixturevalue("two_state")
        else:
            entry = build(name, **params)
            model, spec, f = entry.model, entry.spec, entry.f
        n = model.horizon
        flow = analyze(model, spec, f, terminal=n)
        config = RunConfig(40, 19, n)
        stats = simulate_replicates(config, model, spec, f, 37, flow=flow)
        assert stats.w_steps.shape == stats.delta_c_steps.shape == (37, n + 1)
        for r in range(37):
            trace = simulate(config, model, spec, replicate=r)
            doob = doob_terms(trace, flow, model, f, n)
            dc = increasing_increments(trace, model, spec, f)
            pairs = [
                (stats.w_steps[r], doob.w[0]),
                (stats.delta_c_steps[r], dc[0]),
                (stats.l_terminal[r], doob.l[0, n]),
                (stats.b_terminal[r], doob.b[0, n]),
                (stats.residual_mean[r], doob.residual_mean[0]),
                (stats.residual_field[r], doob.residual_field[0]),
            ]
            for got, expected in pairs:
                assert_allclose(got, expected, rtol=0, atol=tol.ALGEBRA)

    def test_deterministic_output(self, two_state):
        model, spec, f = two_state
        a = simulate_replicates(RunConfig(100, 5, 2), model, spec, f, 10)
        b = simulate_replicates(RunConfig(100, 5, 2), model, spec, f, 10)
        for field in fields(ReplicateStats):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_centering_over_replicates(self, two_state):
        model, spec, f = two_state
        flow = analyze(model, spec, f, terminal=2)
        stats = simulate_replicates(
            RunConfig(50, 23, 2), model, spec, f, 2000, flow=flow
        )
        w = stats.w
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean()) <= 5 * se

    def test_degenerate_function_rejected(self, two_state):
        model, spec, _ = two_state
        f = make_function([np.ones(2)] * 3)
        with pytest.raises(DegenerateFunction):
            stein_experiment(model, spec, f, 2, 50, 2, 1)

    def test_bad_rep_count(self, two_state):
        model, spec, f = two_state
        with pytest.raises(ValueError):
            simulate_replicates(RunConfig(50, 1, 2), model, spec, f, 0)
