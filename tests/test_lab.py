import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

import fkbench.lab as lab
from fkbench.engine import RunConfig, simulate_replicates
from fkbench.errors import (
    ConfigError,
    DegenerateFunction,
    DegenerateSigma,
    InsufficientReplicates,
    OscillationTooLarge,
    QuadratureFailure,
)
from fkbench.flow import analyze
from fkbench.lab import (
    clt_rate_experiment,
    concentration_experiment,
    default_eps_grid,
    iid_moment_check,
    kolmogorov_distance,
    lp_moment_experiment,
    normal_cf,
    smoothing_bound,
    stein_check,
    stein_experiment,
)
from fkbench.model import make_function
from fkbench.zoo import build


class TestKolmogorovDistance:
    def test_single_point_at_zero(self):
        assert_allclose(kolmogorov_distance([0.0], 1.0), 0.5)

    def test_distant_mass(self):
        assert kolmogorov_distance(np.full(100, 10.0), 1.0) > 0.999

    def test_gaussian_sample_is_close(self):
        rng = np.random.default_rng(4)
        assert kolmogorov_distance(rng.normal(0.0, 2.0, size=10_000), 2.0) < 0.02

    def test_matches_dense_grid_bruteforce(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=40)
        exact = kolmogorov_distance(values, 1.0)
        # dense grid plus points hugging each jump from the left
        jumps = np.sort(values)
        grid = np.concatenate([np.linspace(-5, 5, 200_001), jumps, jumps - 1e-9])
        ecdf = np.searchsorted(jumps, grid, side="right") / jumps.size
        brute = np.max(np.abs(ecdf - ndtr(grid)))
        assert brute <= exact + 1e-12
        assert_allclose(brute, exact, atol=1e-6)

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateSigma):
            kolmogorov_distance([1.0], 0.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_distance([], 1.0)


class TestCltRateExperiment:
    def test_smoke_run_and_determinism(self):
        entry = build("iid_reduction")
        kwargs = dict(n_grid=[50, 200], n_reps=400, master_seed=3, n_boot=50)
        a = clt_rate_experiment(entry.model, entry.spec, entry.f, 0, **kwargs)
        b = clt_rate_experiment(entry.model, entry.spec, entry.f, 0, **kwargs)
        assert a == b
        assert a.slope < 0.0
        assert a.slope_ci[0] <= a.slope <= a.slope_ci[1]
        json.dumps(asdict(a), allow_nan=False)

    def test_degenerate_function(self):
        entry = build("iid_reduction")
        f = make_function([np.ones(2)])
        with pytest.raises(DegenerateFunction):
            clt_rate_experiment(
                entry.model, entry.spec, f, 0, [100], 100, master_seed=1
            )

    def test_noise_guard(self, monkeypatch):
        entry = build("iid_reduction")
        monkeypatch.setattr(lab, "kolmogorov_distance", lambda s, sigma: 1e-9)
        with pytest.raises(InsufficientReplicates):
            clt_rate_experiment(
                entry.model, entry.spec, entry.f, 0, [50, 100], 50, master_seed=1
            )


class TestSmoothingBound:
    def test_identical_cfs_leave_tail_term(self):
        cf = normal_cf()
        expected = 24.0 / (3.0 * math.pi) * (1.0 / math.sqrt(2 * math.pi))
        assert_allclose(
            smoothing_bound(cf, cf, 3.0, 1.0 / math.sqrt(2 * math.pi)),
            expected,
        )

    def test_dominates_true_shift_distance(self):
        density_sup = 1.0 / math.sqrt(2 * math.pi)
        for shift in (0.05, 0.3):
            true = np.max(
                np.abs(
                    ndtr(np.linspace(-8, 8, 200_001) - shift)
                    - ndtr(np.linspace(-8, 8, 200_001))
                )
            )
            bound = smoothing_bound(
                normal_cf(mean=shift), normal_cf(), 40.0, density_sup
            )
            assert bound >= true

    def test_tail_term_shrinks_with_a(self):
        cf = normal_cf()
        density_sup = 1.0 / math.sqrt(2 * math.pi)
        assert smoothing_bound(cf, cf, 100.0, density_sup) < smoothing_bound(
            cf, cf, 1.0, density_sup
        )

    def test_quadrature_failure(self):
        wild = lambda x: np.exp(1j * 1e8 * x)
        with pytest.raises(QuadratureFailure):
            smoothing_bound(wild, normal_cf(), 10.0, 1.0)

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            smoothing_bound(normal_cf(), normal_cf(), 0.0, 1.0)


class TestSteinCheck:
    def test_zero_perturbation_is_tight(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=2000)
        report = stein_check(x, np.zeros(2000))
        assert report.passed
        assert_allclose(report.lhs, kolmogorov_distance(x, 1.0))

    def test_small_multiplicative_perturbation(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=10_000)
        report = stein_check(x, 0.01 * x)
        assert report.passed

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            stein_check([1.0, 2.0], [1.0])


class TestConcentrationExperiment:
    def test_unit_eps_zero_and_pass(self):
        entry = build("iid_reduction", p=0.5)
        report = concentration_experiment(
            entry.model, entry.spec, entry.f, 0, 100,
            [0.0, 0.1, 0.5, 1.0], 1500, master_seed=5,
        )
        assert report.empirical[0] == 1.0
        assert report.bounds[0] == 1.0
        assert report.passed
        json.dumps(asdict(report), allow_nan=False)

    def test_delta_c_variant(self, two_state):
        model, spec, f = two_state
        report = concentration_experiment(
            model, spec, f, 2, 200, [0.0, 0.05, 0.2], 800,
            master_seed=5, statistic="delta_c",
        )
        assert report.passed

    def test_oscillation_gate(self, two_state):
        model, spec, _ = two_state
        f = make_function([[0.0, 2.0]] * 3)
        with pytest.raises(OscillationTooLarge):
            concentration_experiment(
                model, spec, f, 2, 100, [0.1], 100, master_seed=1
            )

    def test_stability_cap(self):
        entry = build("iid_reduction", p=0.5)
        with pytest.raises(ValueError):
            concentration_experiment(
                entry.model, entry.spec, entry.f, 0, 10_000, [1.0], 100,
                master_seed=1,
            )

    def test_unknown_statistic(self, two_state):
        model, spec, f = two_state
        with pytest.raises(ValueError):
            concentration_experiment(
                model, spec, f, 2, 100, [0.1], 100, master_seed=1,
                statistic="nope",
            )

    def test_default_grid_respects_cap(self):
        grid = default_eps_grid(400, 1.0)
        assert grid[-1] * math.sqrt(400) * 1.0 <= 20.0 + 1e-12
        assert np.all(np.diff(grid) > 0)


class TestMomentExperiments:
    def test_iid_second_moment_near_half(self):
        report = iid_moment_check(
            [0.5, 0.5], [-0.5, 0.5], 400, 2, 3000, master_seed=9, n_boot=100
        )
        lhs_p2 = report.lhs[1]
        assert 0.45 <= lhs_p2 <= 0.55
        assert report.rhs[1] == 1.0
        assert report.passed

    def test_constant_h_gives_zero(self):
        report = iid_moment_check(
            [0.5, 0.5], [2.0, 2.0], 100, 3, 200, master_seed=9, n_boot=50
        )
        assert all(v == 0.0 for v in report.lhs)

    def test_particle_moments_pass(self, two_state):
        model, spec, f = two_state
        report = lp_moment_experiment(
            model, spec, f, 2, 200, 4, 800, master_seed=13, n_boot=100
        )
        assert report.passed
        assert len(report.lhs) == 4
        # rhs(p) = d(p)^(1/p) * b(n), so p=4 against p=2 isolates d(4) = 3
        assert_allclose(report.rhs[3] / report.rhs[1], 3.0**0.25)
        json.dumps(asdict(report), allow_nan=False)

    def test_order_cap(self, two_state):
        model, spec, f = two_state
        with pytest.raises(ValueError):
            lp_moment_experiment(
                model, spec, f, 2, 100, 9, 100, master_seed=1
            )


def _ill_posed_calls():
    """Experiments whose verdict cannot mean anything, keyed by the reason."""
    entry = build("binary_hmm")
    args = (entry.model, entry.spec, entry.f, 5)
    return {
        "empty N grid": lambda: clt_rate_experiment(*args, [], 100, 1),
        "one N": lambda: clt_rate_experiment(*args, [100], 100, 1),
        "repeated N": lambda: clt_rate_experiment(*args, [100, 100], 100, 1),
        "zero N": lambda: clt_rate_experiment(*args, [100, 0], 100, 1),
        "empty eps grid": lambda: concentration_experiment(*args, 100, [], 100, 1),
        "negative eps": lambda: concentration_experiment(*args, 100, [-0.1], 100, 1),
        "eps over cap": lambda: concentration_experiment(*args, 100, [5.0], 100, 1),
        "unknown statistic": lambda: concentration_experiment(
            *args, 100, [0.1], 100, 1, statistic="nope"
        ),
        "no particles": lambda: concentration_experiment(*args, 0, [0.1], 100, 1),
        "p_max 0": lambda: lp_moment_experiment(*args, 100, 0, 100, 1),
        "p_max 9": lambda: lp_moment_experiment(*args, 100, 9, 100, 1),
        "iid p_max 0": lambda: iid_moment_check([0.5, 0.5], [0, 1], 100, 0, 100, 1),
        "iid p_max 9": lambda: iid_moment_check([0.5, 0.5], [0, 1], 100, 9, 100, 1),
    }


ILL_POSED = _ill_posed_calls()


@pytest.mark.parametrize("case", list(ILL_POSED))
def test_ill_posed_verdict_fails_before_any_draw(case, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("an ill-posed experiment drew replicates")

    monkeypatch.setattr(lab, "simulate_replicates", no_draws)
    monkeypatch.setattr(lab, "stream", no_draws)
    with pytest.raises(ConfigError):
        ILL_POSED[case]()


def test_negative_eps_has_its_own_message():
    entry = build("binary_hmm")
    with pytest.raises(ConfigError, match="must be >= 0"):
        concentration_experiment(
            entry.model, entry.spec, entry.f, 5, 100, [0.1, -0.1], 100, 1
        )


class TestSteinExperiment:
    def test_is_stein_check_on_normalized_decomposition(self, two_state):
        model, spec, f = two_state
        report = stein_experiment(model, spec, f, 2, 100, 300, 4)
        flow = analyze(model, spec, f, terminal=2)
        stats = simulate_replicates(RunConfig(100, 4, 2), model, spec, f, 300)
        scale = 1.0 / math.sqrt(flow.sigma_sq)
        assert report == stein_check(
            scale * stats.l_terminal, scale * stats.b_terminal
        )
        json.dumps(asdict(report), allow_nan=False)
