import sys
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chi2, chisquare

import fkbench.engine as engine
import fkbench.flow
from fkbench import tolerances as tol
from fkbench.engine import (
    DoobSeries,
    RunConfig,
    doob_terms,
    sampling_error,
    simulate,
    simulate_replicates,
    step_counts,
)
from fkbench.errors import ConfigError, DegenerateFunction
from fkbench.flow import (
    analyze,
    boltzmann_gibbs,
    conditional_variance,
    exact_flow,
    limiting_variance,
    step_phi,
)
from fkbench.lab import stein_experiment
from fkbench.model import (
    make_function,
    make_model,
    mixing_weights,
)
from fkbench.rng import stream
from fkbench.zoo import build

from .oracles import mckean_kernel, reference_step


def _redraw(model, counts, n, seed, reps):
    """reps independent draws of the step n -> n+1 from frozen counts."""
    rngs = (stream(seed, r, n + 1) for r in range(reps))
    return step_counts(model, np.tile(counts, (reps, 1)), n, rngs)


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
        trace = simulate(RunConfig(50, 3, 1), model)
        assert all(c.tolist() == [[50, 0]] for c in trace.counts)

    def test_initial_frequency(self):
        model = make_model([0.5, 0.5], [], [np.ones(2)])
        trace = simulate(RunConfig(100_000, 9, 0), model)
        freq = trace.empirical(0)[0, 0]
        se = 0.5 / np.sqrt(100_000)
        assert abs(freq - 0.5) <= 5 * se

    def test_same_seed_same_cloud(self):
        model = make_model([0.5, 0.5], [], [np.ones(2)])
        a = simulate(RunConfig(1000, 11, 0), model)
        b = simulate(RunConfig(1000, 11, 0), model)
        assert np.array_equal(a.counts[0], b.counts[0])

    def test_bad_population(self):
        model = make_model([1.0], [], [np.ones(1)])
        with pytest.raises(ValueError):
            simulate(RunConfig(0, 1, 0), model)


class TestStep:
    def test_singleton_spaces_stay_trivial(self):
        model = make_model([1.0], [np.ones((1, 1))] * 3, [np.ones(1)] * 4)
        f = make_function([[0.5]] * 4)
        trace = simulate(RunConfig(20, 5, 3), model)
        assert all(c.tolist() == [[20]] for c in trace.counts)
        series = doob_terms(trace, analyze(model, f))
        assert_allclose(series.l, 0.0)
        assert_allclose(series.delta_c, 0.0)

    def test_conditional_mean_matches_exact_update(self, two_state):
        # freeze a cloud, redraw the next step many times: the average
        # empirical mean must match the exact one-step prediction
        model, f = two_state
        frozen = simulate(RunConfig(200, 13, 0), model).counts[0][0]
        predicted = float(step_phi(model, frozen / 200, 0) @ f.values[1])
        draws = _redraw(model, frozen, 0, 13, 10_000) @ f.values[1] / 200
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - predicted) <= 5 * se

    def test_exact_law_of_one_step(self, two_state):
        # the count step has the law of N independent particle moves, each
        # through its own row of the selection/mutation kernel
        ring = build("ring_walk", d=4, eps_scale=1.0)
        cases = [(ring.model, [2, 0, 1, 1]), (two_state[0], [3, 2])]
        reps = 40_000
        for model, counts in cases:
            counts = np.array(counts)
            kernel = mckean_kernel(model, counts / counts.sum(), 0)
            law = _count_law(kernel, counts)
            draws = _redraw(model, counts, 0, 41, reps)
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
        model = entry.model
        assert_allclose(mixing_weights(model, 0), 1.0)
        frozen = np.array([50, 50])
        stay = _redraw(model, frozen, 0, 43, 10_000)[:, 0]
        se = stay.std(ddof=1) / np.sqrt(len(stay))
        assert abs(stay.mean() - 55.0) <= 5 * se
        sq = (stay - stay.mean()) ** 2
        se_var = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(stay.var(ddof=1) - 18.5) <= 5 * se_var

    def test_partly_zero_own_row_weights_draw_as_the_full_binomial(self):
        # own-row numbers that are 0 whatever is drawn: an empty state of
        # positive weight beside occupied ones (eps 0.4), and every weight 0
        # (eps 0, where no binomial is drawn).  Either way every row's counts
        # must be those of the full draw of a binomial at every state.
        kernel = [[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], [0.25] * 4, [0.7, 0.1, 0.1, 0.1]]
        potentials = [np.array([0.5, 1.0, 2.0, 1.5]), np.ones(4)]
        frozen, reps, seed = np.array([40, 0, 35, 25]), 200, 23
        for eps in (0.4, 0.0):
            model = make_model([0.25] * 4, [kernel], potentials, epsilons=[eps])
            assert np.all((mixing_weights(model, 0) > 0.0) == (eps > 0.0))
            drawn = _redraw(model, frozen, 0, seed, reps)
            rngs = (stream(seed, r, 1) for r in range(reps))
            full = reference_step(model, np.tile(frozen, (reps, 1)), 0, rngs)
            assert np.array_equal(drawn, full)
            assert len(np.unique(drawn, axis=0)) > 1

    def test_weight_rounded_above_one_steps(self):
        model = make_model(
            [0.5, 0.5], [[[0.8, 0.2], [0.3, 0.7]]], [np.ones(2)] * 2, epsilons=[1.0 + 0.5e-12]
        )
        assert np.all(mixing_weights(model, 0) == 1.0)
        trace = simulate(RunConfig(100, 3, 1), model)
        assert trace.counts[1].sum() == 100

    def test_rounded_probabilities_conserve_population(self):
        for delta in (-1e-13, 0.9e-12):
            model = make_model(
                [0.3 + delta, 0.2, 0.5],
                [[[0.4, 0.6 + delta, 0.0], [0.5 + delta, 0.0, 0.5], [0.1, 0.2, 0.7]]] * 2,
                [np.array([1.0, 2.0, 1.0])] * 3,
                epsilons=[0.5, 0.5],
            )
            trace = simulate(RunConfig(1000, 2, 2), model, range(50))
            assert all(np.all(c.sum(axis=1) == 1000) for c in trace.counts)

    def test_cost_does_not_grow_with_population(self):
        entry = build("binary_hmm")
        config = RunConfig(10**8, 5, entry.model.horizon)
        tracemalloc.start()
        try:
            trace = simulate(config, entry.model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(int(c.sum()) == 10**8 for c in trace.counts)
        assert peak < 1_000_000

    def test_horizon_cap(self, two_state):
        model, _ = two_state
        with pytest.raises(ValueError):
            simulate(RunConfig(10, 1, 3), model)


class TestBatch:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("two_state", {}),
            ("ring_walk", {"eps_scale": 1.0}),
            ("path_genealogy", {"horizon": 4}),
        ],
    )
    def test_rows_are_the_single_replicate_runs(self, name, params, request):
        if name == "two_state":
            model, _ = request.getfixturevalue("two_state")
        else:
            entry = build(name, **params)
            model = entry.model
        config = RunConfig(60, 31, model.horizon)
        batch = simulate(config, model, [5, 2, 9])
        backward = simulate(config, model, [9, 2, 5])
        for i, r in enumerate([5, 2, 9]):
            alone = simulate(config, model, [r])
            for q, c in enumerate(alone.counts):
                assert np.array_equal(batch.counts[q][i], c[0])
                assert np.array_equal(backward.counts[q][2 - i], c[0])

    @pytest.mark.parametrize("replicates", [[], [3, -1]])
    def test_bad_batch_rejected(self, replicates, two_state):
        model, _ = two_state
        with pytest.raises(ConfigError):
            simulate(RunConfig(10, 1, 2), model, replicates)

    def test_mixing_weights_once_per_step(self, two_state, monkeypatch):
        # the replicates are one batch: the step's weights are derived once
        model, f = two_state
        calls = Counter()

        def counted(model, n):
            calls[n] += 1
            return mixing_weights(model, n)

        monkeypatch.setattr(engine, "mixing_weights", counted)
        simulate_replicates(analyze(model, f), 10, 6, 1)
        assert calls == {0: 1, 1: 1}

    def test_step_phi_once_per_step(self, two_state, monkeypatch):
        # every row's resampling law comes from one call on the whole batch
        model, f = two_state
        calls = Counter()

        def counted(model, mu, n):
            calls[n] += 1
            return step_phi(model, mu, n)

        monkeypatch.setattr(engine, "step_phi", counted)
        simulate_replicates(analyze(model, f), 10, 6, 1)
        assert calls == {0: 1, 1: 1}

    def test_multinomial_gets_a_python_int_size(self):
        # at eps > 0 the resampled size is N minus the own-row movers: passed
        # as a Python int, never a numpy scalar; the movers' sizes are arrays
        model = build("ring_walk").model
        assert all(mixing_weights(model, n).any() for n in range(model.horizon))
        trace = simulate(RunConfig(30, 4, model.horizon), model, range(3))
        sizes = []

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def multinomial(self, n, pvals):
                sizes.append(n)
                return self.rng.multinomial(n, pvals)

        for n in range(model.horizon):
            rngs = (Recorder(stream(4, r, n + 1)) for r in range(3))
            nxt = step_counts(model, trace.counts[n], n, rngs)
            assert np.array_equal(nxt, trace.counts[n + 1])  # the same draws
        scalars = [N for N in sizes if not isinstance(N, np.ndarray)]
        assert len(scalars) == 3 * model.horizon
        assert all(type(N) is int for N in scalars)

    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize(
        "name, params, mixed", [("path_genealogy", {"horizon": 3}, False), ("ring_walk", {}, True)]
    )
    def test_step_counts_returns_int64_rows(self, name, params, mixed, reps):
        # path_genealogy steps at eps = 0 from 4 states onto 8; ring_walk at eps > 0
        model, n = build(name, **params).model, 1
        assert mixing_weights(model, n).any() == mixed
        counts = simulate(RunConfig(20, 7, n), model, range(reps)).counts[n]
        nxt = step_counts(model, counts, n, (stream(7, r, n + 1) for r in range(reps)))
        assert nxt.dtype == np.int64 and nxt.shape == (reps, model.dims[n + 1])
        assert np.array_equal(nxt.sum(axis=1), np.full(reps, 20))


class TestRowExact:
    """Row i of a batch call equals the call on row i alone, bit for bit.

    A product of an (R, d) batch with @ goes to BLAS gemv/gemm, which rounds a
    row differently inside a batch; these fail as soon as one comes back.
    """

    @pytest.mark.parametrize("d", [2, 16, 512])
    def test_measure_functions_are_row_exact(self, d):
        rng = np.random.default_rng(d)
        kernels = rng.random((2, d, d))
        kernels /= kernels.sum(axis=2, keepdims=True)
        model = make_model(
            np.full(d, 1.0 / d), kernels, 0.5 + rng.random((3, d)), epsilons=[0.3, 0.3]
        )
        mus, emps = rng.dirichlet(np.ones(d), size=(2, 9))
        v = rng.standard_normal(d)
        calls = [
            lambda mu, emp: boltzmann_gibbs(model, mu, 1),
            lambda mu, emp: step_phi(model, mu, 1),
            lambda mu, emp: conditional_variance(model, mu, 0, v),
            lambda mu, emp: conditional_variance(model, mu, 2, v),
            lambda mu, emp: sampling_error(model, mu, emp, 0, v),
            lambda mu, emp: sampling_error(model, mu, emp, 2, v),
        ]
        for call in calls:
            batch = call(mus, emps)
            for i in range(len(mus)):
                assert np.array_equal(batch[i], call(mus[i], emps[i]))
                assert np.array_equal(batch[i], call(mus[i : i + 1], emps[i : i + 1])[0])


class TestMartingaleIncrement:
    def test_constant_function_gives_zero(self, two_state):
        model, _ = two_state
        f = make_function([np.ones(2)] * 3)
        trace = simulate(RunConfig(100, 21, 1), model)
        prev, nxt = trace.empirical(0), trace.empirical(1)
        assert sampling_error(model, model.eta0, prev, 0, f.values[0]) == 0.0
        # the predicted law sums to one only up to rounding
        assert abs(sampling_error(model, prev, nxt, 1, f.values[1])) <= tol.ALGEBRA

    def test_single_particle_reduction(self, two_state):
        model, f = two_state
        trace = simulate(RunConfig(1, 33, 1), model)
        prev, nxt = (int(np.argmax(c)) for c in trace.counts)
        K = mckean_kernel(model, trace.empirical(0), 0)
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
        model, f = two_state
        counts = simulate(RunConfig(100, 17, 0), model).counts[0]
        frozen = counts / 100
        redrawn = _redraw(model, counts, 0, 17, 10_000) / 100
        incs = np.array(
            [sampling_error(model, frozen, nxt, 1, f.values[1]) for nxt in redrawn]
        )
        se = incs.std(ddof=1) / np.sqrt(len(incs))
        assert abs(incs.mean()) <= 5 * se

        exact_var = conditional_variance(model, frozen, 1, f.values[1]) / 100
        sq = (incs - incs.mean()) ** 2
        se_var = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(incs.var(ddof=1) - exact_var) <= 5 * se_var


class TestIncreasingProcess:
    def test_constant_function_gives_zero(self, two_state):
        model, _ = two_state
        f = make_function([np.ones(2)] * 3)
        assert conditional_variance(model, model.eta0, 0, f.values[0]) == 0.0

    def test_initial_increment_is_initial_variance(self, two_state):
        model, f = two_state
        expected = 0.25  # variance of the indicator under (0.5, 0.5)
        assert_allclose(
            conditional_variance(model, model.eta0, 0, f.values[0]), expected
        )

    def test_full_weight_reduces_to_chain_variance(self):
        # eps*G = 1 makes the particle kernel the chain kernel itself
        entry = build("plain_markov", eps=1.0)
        model, f = entry.model, entry.f
        mu = simulate(RunConfig(300, 7, 0), model).empirical(0)[0]
        M = model.kernels[0]
        v = f.values[1]
        expected = float(mu @ (M @ (v * v) - (M @ v) ** 2))
        assert_allclose(
            conditional_variance(model, mu, 1, f.values[1]),
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
            epsilons=[eps, eps],
        )
        v = np.array([-1.0, 2.5])
        mus = np.array([[0.5, 0.5], [0.9, 0.1], [0.0, 1.0]])
        for n in (1, 2):
            batch = conditional_variance(model, mus, n, v)
            for mu, got in zip(mus, batch):
                K = mckean_kernel(model, mu, n - 1)
                expected = mu @ (K @ (v * v) - (K @ v) ** 2)
                assert_allclose(got, expected, rtol=0, atol=tol.ALGEBRA)
                assert_allclose(
                    conditional_variance(model, mu, n, v),
                    expected,
                    rtol=0,
                    atol=tol.ALGEBRA,
                )

    def test_converges_to_limit(self, two_state):
        model, f = two_state
        flow = exact_flow(model)
        limit = limiting_variance(model, flow.etas, f.values).sum()
        errs, analytics = [], analyze(model, f)
        for N in (100, 10_000):
            stats = simulate_replicates(analytics, N, 50, 29)
            errs.append(np.median(np.abs(stats.delta_c.sum(axis=1) - limit)))
        assert errs[1] < errs[0]

    def test_converges_to_limit_with_mixed_kernel(self):
        # nonzero mixing weights: particles move through the two-part kernel,
        # and the realized increasing process still finds the exact limit
        entry = build("ring_walk")
        model, f = entry.model, entry.f
        assert max(model.epsilons) > 0.0
        n = model.horizon
        flow = exact_flow(model)
        limit = limiting_variance(model, flow.etas, f.values[: n + 1]).sum()
        stats = simulate_replicates(analyze(model, f), 20_000, 8, 71)
        worst = np.abs(stats.delta_c.sum(axis=1) - limit).max()
        assert worst < 0.02 * limit


class TestDoob:
    def test_identities_per_run(self, two_state):
        model, f = two_state
        trace = simulate(RunConfig(250, 101, 2), model, range(25))
        series = doob_terms(trace, analyze(model, f))
        assert np.all(series.residual_mean <= tol.PRODUCT)
        assert np.all(series.residual_field <= tol.PRODUCT)
        # realized increasing process never decreases
        assert np.all(series.delta_c >= -1e-15)

    def test_terminal_field_is_plain_error(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        config = RunConfig(250, 77, 2)
        trace = simulate(config, model)
        series = doob_terms(trace, flow)
        expected = np.sqrt(250) * float(
            (trace.empirical(2)[0] - flow.etas[2]) @ f.values[2]
        )
        assert_allclose(series.w[0, 2], expected, atol=tol.PRODUCT)

    def test_earlier_terminal_reads_a_prefix_of_the_runs(self, two_state):
        # a shorter run is a run of the truncated model: the first count
        # arrays of the longer run at the same seed and replicates
        model, f = two_state
        whole = simulate(RunConfig(50, 3, 2), model, range(4))
        assert whole.model is model
        short = simulate(RunConfig(50, 3, 1), model, range(4))
        assert short.model.horizon == 1
        assert len(short.counts) == 2
        for cut, full in zip(short.counts, whole.counts):
            assert np.array_equal(cut, full)
        assert doob_terms(short, analyze(short.model, f)).w.shape == (4, 2)

    def test_runs_must_reach_the_terminal(self, two_state):
        # a horizon-1 run is of truncate(model, 1), not of model
        model, f = two_state
        trace = simulate(RunConfig(50, 3, 1), model)
        with pytest.raises(ConfigError):
            doob_terms(trace, analyze(model, f))


class TestReplicates:
    def test_single_rep_matches_direct_run(self, two_state):
        model, f = two_state
        stats = simulate_replicates(analyze(model, f), 100, 1, 5)
        trace = simulate(RunConfig(100, 5, 2), model, [0])
        series = doob_terms(trace, analyze(model, f))
        assert stats.w[0, -1] == series.w[0, 2]
        assert stats.l[0, -1] == series.l[0, 2]

    @pytest.mark.parametrize(
        "name, params",
        [
            ("two_state", {}),
            ("ring_walk", {"eps_scale": 1.0}),
            ("path_genealogy", {"horizon": 4}),
        ],
    )
    def test_rows_match_single_runs(self, name, params, request):
        # the one pass over R = 37 stacked runs gives, row by row and bit for
        # bit, what the same functions give on each replicate run alone
        if name == "two_state":
            model, f = request.getfixturevalue("two_state")
        else:
            entry = build(name, **params)
            model, f = entry.model, entry.f
        n = model.horizon
        config = RunConfig(40, 19, n)
        flow = analyze(model, f)
        stats = simulate_replicates(flow, 40, 37, 19)
        assert stats.w.shape == stats.delta_c.shape == (37, n + 1)
        for r in range(37):
            doob = doob_terms(simulate(config, model, [r]), flow)
            for field in fields(DoobSeries):
                got, expected = getattr(stats, field.name)[r], getattr(doob, field.name)[0]
                assert np.array_equal(got, expected)

    def test_deterministic_output(self, two_state):
        model, f = two_state
        flow = analyze(model, f)
        a, b = simulate_replicates(flow, 100, 10, 5), simulate_replicates(flow, 100, 10, 5)
        for field in fields(DoobSeries):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_one_analyze_and_one_simulate_per_batch(self, two_state, monkeypatch):
        # the caller's analyze is the batch's only one: analyze is spied on at
        # every fkbench module that binds it, so one inside the batch counts too
        model, f = two_state
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fkbench" and getattr(module, "analyze", None) is analyze:
                monkeypatch.setattr(module, "analyze", counted("analyze", analyze))
        monkeypatch.setattr(engine, "simulate", counted("simulate", simulate))
        simulate_replicates(fkbench.flow.analyze(model, f), 20, 5, 3)
        assert calls == {"analyze": 1, "simulate": 1}

    def test_centering_over_replicates(self, two_state):
        model, f = two_state
        stats = simulate_replicates(analyze(model, f), 50, 2000, 23)
        w = stats.w[:, -1]
        se = w.std(ddof=1) / np.sqrt(len(w))
        assert abs(w.mean()) <= 5 * se

    def test_degenerate_function_rejected(self, two_state):
        model, _ = two_state
        f = make_function([np.ones(2)] * 3)
        with pytest.raises(DegenerateFunction):
            stein_experiment(model, f, 50, 2, 1)

    def test_bad_rep_count(self, two_state):
        model, f = two_state
        with pytest.raises(ValueError):
            simulate_replicates(analyze(model, f), 50, 0, 1)
