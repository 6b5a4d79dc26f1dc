import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
import scipy
from scipy.special import ndtr

import fkbench.engine as engine
import fkbench.lab as lab
import fkbench.rng as rng
from fkbench.bounds import burkholder_d, mixing_bounds
from fkbench.engine import RunConfig, doob_terms, simulate, simulate_replicates
from fkbench.errors import (
    BadInitialLaw,
    ConfigError,
    DegenerateFunction,
    EpsilonOutOfRange,
    InsufficientReplicates,
    NonStochasticKernel,
    OscillationTooLarge,
    QuadratureFailure,
)
from fkbench.flow import analyze
from fkbench.lab import (
    clt_rate_experiment,
    concentration_experiment,
    default_eps_grid,
    empirical_cf,
    iid_moment_check,
    kolmogorov_distance,
    lp_moment_experiment,
    normal_cf,
    smoothing_bound,
    stein_check,
    stein_experiment,
)
from fkbench.model import make_function, make_model, model_from_dict, truncate
from fkbench.rng import replicate_keys, stream
from fkbench.zoo import binary_hmm, build, iid_reduction, path_genealogy, ring_walk


VERSIONS = f"numpy {np.__version__}, scipy {scipy.__version__}"


def scipy_kolmogorov_distance(values) -> float:
    """kolmogorov_distance as it was written on scipy's ndtr: the reference."""
    v = np.sort(np.asarray(values, dtype=float))
    u, i = ndtr(v), np.arange(1, v.size + 1)
    return float(np.max(np.maximum(i / v.size - u, u - (i - 1) / v.size)))


class TestNdtr:
    """lab._ndtr against scipy.special.ndtr, which runs the same Cephes code.

    Where x sqrt(1/2) <= -8 (Cephes' erfc from 8 on, values below 6e-30)
    scipy's build rounds differently, so the far lower tail is held to a
    relative tolerance; everywhere else the two agree bit for bit.
    """

    def test_equals_scipy_bit_for_bit(self):
        rng = np.random.default_rng(33)
        # the branch edges z = |x| sqrt(1/2) = sqrt(1/2), 1, 8, 3 ulps each side
        edges = [
            s * e + k * np.spacing(e)
            for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0))
            for s in (1.0, -1.0)
            for k in range(-3, 4)
        ]
        x = np.concatenate([
            2.5 * rng.standard_normal(1_000_000),
            np.linspace(-11.3, 11.3, 200_001),
            [0.0, -0.0, 5e-324, -5e-324],
            edges,
        ])
        ours, ref = lab._ndtr(x), ndtr(x)
        tail = x * math.sqrt(0.5) <= -8.0
        moved = ours[~tail].view(np.int64) != ref[~tail].view(np.int64)
        assert not moved.any(), f"{moved.sum()} values differ under {VERSIONS}"
        assert np.all(np.abs(ours[tail] - ref[tail]) <= 1e-13 * ref[tail])

    def test_far_tails(self):
        x = np.linspace(11.31, 38.0, 100_001)
        assert np.all(lab._ndtr(x) == 1.0)
        ours, ref = lab._ndtr(-x), ndtr(-x)
        assert np.all(np.abs(ours - ref) <= 1e-13 * ref), VERSIONS

    def test_kolmogorov_distance_equals_the_scipy_reference(self):
        rng = np.random.default_rng(34)
        for _ in range(250):
            scale = math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
            sample = scale * rng.standard_normal(int(rng.integers(1, 2000)))
            assert kolmogorov_distance(sample) == scipy_kolmogorov_distance(sample), (
                f"scale {scale}, size {sample.size}, {VERSIONS}"
            )


class TestKolmogorovDistance:
    def test_single_point_at_zero(self):
        assert_allclose(kolmogorov_distance([0.0]), 0.5)

    def test_distant_mass(self):
        assert kolmogorov_distance(np.full(100, 10.0)) > 0.999

    def test_gaussian_sample_is_close(self):
        rng = np.random.default_rng(4)
        assert kolmogorov_distance(rng.normal(0.0, 2.0, size=10_000) / 2.0) < 0.02

    def test_matches_dense_grid_bruteforce(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=40)
        exact = kolmogorov_distance(values)
        # dense grid plus points hugging each jump from the left
        jumps = np.sort(values)
        grid = np.concatenate([np.linspace(-5, 5, 200_001), jumps, jumps - 1e-9])
        ecdf = np.searchsorted(jumps, grid, side="right") / jumps.size
        brute = np.max(np.abs(ecdf - ndtr(grid)))
        assert brute <= exact + 1e-12
        assert_allclose(brute, exact, atol=1e-6)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_distance([])


class TestCltRateExperiment:
    def test_smoke_run_and_determinism(self):
        entry = build("iid_reduction")
        kwargs = dict(n_reps=400, master_seed=3)
        a = clt_rate_experiment(entry.model, entry.f, **kwargs)
        b = clt_rate_experiment(entry.model, entry.f, **kwargs)
        assert a == b
        assert a.slope < 0.0
        json.dumps(asdict(a), allow_nan=False)

    def test_degenerate_function(self):
        entry = build("iid_reduction")
        f = make_function([np.ones(2)])
        with pytest.raises(DegenerateFunction):
            clt_rate_experiment(entry.model, f, 100, master_seed=1)

    def test_noise_guard(self, monkeypatch):
        entry = build("iid_reduction")
        monkeypatch.setattr(lab, "kolmogorov_distance", lambda s: 1e-9)
        with pytest.raises(InsufficientReplicates):
            clt_rate_experiment(entry.model, entry.f, 50, master_seed=1)


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
        assert_allclose(report.lhs, kolmogorov_distance(x))

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
        # every exp(eps * |V|) and every bound is at least 1, the eps = 0 value
        entry = build("iid_reduction", p=0.5)
        report = concentration_experiment(
            entry.model, entry.f, 100, 1500, master_seed=5
        )
        assert min(report.empirical) >= 1.0
        assert min(report.bounds) >= 1.0
        assert report.passed
        json.dumps(asdict(report), allow_nan=False)

    def test_delta_c_variant(self, two_state):
        model, f = two_state
        report = concentration_experiment(
            model, f, 200, 800, master_seed=5, statistic="delta_c"
        )
        assert report.passed

    def test_eps_grid_has_the_statistics_own_scale(self):
        entry = build("binary_hmm")
        osc = entry.f.oscillation(entry.model.horizon)
        for statistic, scale in (("eta", osc), ("delta_c", osc**2 / 2.0)):
            report = concentration_experiment(
                entry.model, entry.f, 500, 20, 1, statistic=statistic
            )
            assert report.eps_grid == tuple(default_eps_grid(500, scale))

    def test_oscillation_gate(self, two_state):
        model, _ = two_state
        f = make_function([[0.0, 2.0]] * 3)
        with pytest.raises(OscillationTooLarge):
            concentration_experiment(model, f, 100, 100, master_seed=1)

    def test_unknown_statistic(self, two_state):
        model, f = two_state
        with pytest.raises(ValueError):
            concentration_experiment(
                model, f, 100, 100, master_seed=1, statistic="nope"
            )

    def test_default_grid_respects_cap(self):
        grid = default_eps_grid(400, 1.0)
        assert grid[-1] * math.sqrt(400) * 1.0 <= 20.0 + 1e-12
        assert np.all(np.diff(grid) > 0)


class TestMomentExperiments:
    def test_iid_second_moment_near_half(self):
        report = iid_moment_check([0.5, 0.5], [-0.5, 0.5], 400, 3000, master_seed=9)
        lhs_p2 = report.lhs[1]
        assert 0.45 <= lhs_p2 <= 0.55
        assert report.rhs[1] == 1.0
        assert report.passed

    def test_one_replicate_has_no_allowance(self):
        report = iid_moment_check([0.5, 0.5], [-0.5, 0.5], 100, 1, master_seed=9)
        assert report.allowances == (0.0,) * len(lab.MOMENT_ORDERS)

    def test_allowance_is_the_closed_form_standard_error(self):
        # reference: a seeded bootstrap of the lhs, whose own noise at 2,000
        # resamples is about 2%
        v = np.abs(np.random.default_rng(1).normal(size=800))
        report = lab._moment_table(v, 1.0, 1, 0)
        se = np.array(report.allowances) * np.array(report.rhs) / 2.0
        idx = np.random.default_rng(101).integers(0, v.size, size=(2000, v.size))
        for p, closed_form in zip(report.orders, se):
            boot = (v[idx] ** p).mean(axis=1) ** (1.0 / p)
            assert_allclose(closed_form, boot.std(ddof=1), rtol=0.1)

    def test_iid_draws_are_the_horizon_zero_particles(self):
        # replicate r draws from (seed, r, 0), whatever the number of replicates
        mu, h = [0.3, 0.7], np.array([-0.5, 0.5])
        report = iid_moment_check(mu, h, 50, 1001, master_seed=9)
        model = make_model(mu, [], [np.ones(2)])
        counts = simulate(RunConfig(50, 9, 0), model, range(1001)).counts[0]
        assert_allclose(counts[999], stream(9, 999, 0).multinomial(50, mu))
        w = np.sqrt(50) * np.abs(counts / 50 @ (h - 0.2))
        assert_allclose(report.lhs[0], w.mean(), rtol=1e-12)

    @pytest.mark.parametrize("mu", [[0.2, 0.2], [0.7, 0.7], [1.5, -0.5], [np.nan, 1.0]])
    def test_iid_rejects_a_non_law(self, mu, monkeypatch):
        monkeypatch.setattr(engine, "simulate", None)  # fails before any draw
        with pytest.raises(BadInitialLaw):
            iid_moment_check(mu, [0.0, 1.0], 100, 100, 1)

    def test_particle_moments_pass(self, two_state):
        model, f = two_state
        report = lp_moment_experiment(model, f, 200, 800, master_seed=13)
        assert report.passed
        assert report.orders == lab.MOMENT_ORDERS
        # rhs(p) = d(p)^(1/p) * b(n), so p=4 against p=2 isolates d(4) = 3
        assert_allclose(report.rhs[3] / report.rhs[1], 3.0**0.25)
        json.dumps(asdict(report), allow_nan=False)


def _ill_posed_calls():
    """Experiments whose verdict cannot mean anything, keyed by the reason."""
    entry = build("binary_hmm")
    model = entry.model
    args = (model, entry.f)
    short_f = make_function(entry.f.values[:3])
    wide_f = make_function([[0.0, 1.0, 0.0]] * 6)
    nan_f = make_function([[np.nan, 1.0]] * 6)
    ones_f = make_function([[1.0, 1.0]] * 6)
    # a bad model fails at construction, so each is built inside its call
    short_eps = lambda: replace(model, epsilons=(0.0,) * 3)  # 3 weights at horizon 5
    nan_eps = lambda: replace(model, epsilons=(np.nan,) + model.epsilons[1:])
    leaky = lambda: make_model(model.eta0, [[[0.9, 0.0], [0.3, 0.7]]] * 5, model.potentials)
    config = RunConfig(100, 1, 5)
    ring_trace = simulate(RunConfig(50, 1, 5), build("ring_walk", d=4, horizon=5).model)
    other_trace = simulate(config, build("binary_hmm", stay0=0.5).model)
    return {
        "f short: analyze": lambda: analyze(model, short_f),
        "f short: clt": lambda: clt_rate_experiment(model, short_f, 100, 1),
        "f short: concentration": lambda: concentration_experiment(
            model, short_f, 100, 100, 1
        ),
        "f short: moments": lambda: lp_moment_experiment(model, short_f, 100, 100, 1),
        "f short: stein": lambda: stein_experiment(model, short_f, 100, 100, 1),
        "f 3 states: analyze": lambda: analyze(model, wide_f),
        "f 3 states: stein": lambda: stein_experiment(model, wide_f, 100, 100, 1),
        "f 3 states: replicates": lambda: simulate_replicates(
            analyze(model, wide_f), 100, 10, 1
        ),
        "2.5 replicates": lambda: simulate_replicates(analyze(*args), 100, 2.5, 1),
        "-1 replicates": lambda: simulate_replicates(analyze(*args), 100, -1, 1),
        "spec short: replicates": lambda: simulate_replicates(
            analyze(short_eps(), entry.f), 100, 10, 1
        ),
        "kernel row short: replicates": lambda: simulate_replicates(
            analyze(leaky(), entry.f), 100, 10, 1
        ),
        "foreign trace d=4: doob_terms": lambda: doob_terms(ring_trace, analyze(*args)),
        "foreign trace, same dims: doob_terms": lambda: doob_terms(
            other_trace, analyze(*args)
        ),
        "f nan: clt": lambda: clt_rate_experiment(model, nan_f, 100, 1),
        "n_reps '10': clt": lambda: clt_rate_experiment(*args, "10", 1),
        "seed 'x': clt": lambda: clt_rate_experiment(*args, 100, "x"),
        "seed None: clt": lambda: clt_rate_experiment(*args, 100, None),
        "seed 1.5: clt": lambda: clt_rate_experiment(*args, 100, 1.5),
        "seed True: clt": lambda: clt_rate_experiment(*args, 100, True),
        "f nan: stein": lambda: stein_experiment(model, nan_f, 100, 100, 1),
        "spec short: analyze": lambda: analyze(short_eps(), entry.f),
        "spec short: simulate": lambda: simulate(config, short_eps()),
        "eps nan: analyze": lambda: analyze(nan_eps(), entry.f),
        "eps nan: replicates": lambda: simulate_replicates(
            analyze(nan_eps(), entry.f), 100, 10, 1
        ),
        "eps nan: clt": lambda: clt_rate_experiment(nan_eps(), entry.f, 100, 1),
        "kernel row short: simulate": lambda: simulate(config, leaky()),
        "N 2.7: simulate": lambda: simulate(RunConfig(2.7, 1, 5), model),
        "N True: simulate": lambda: simulate(RunConfig(True, 1, 5), model),
        "horizon -1: simulate": lambda: simulate(RunConfig(10, 1, -1), model),
        "seed 1.5: simulate": lambda: simulate(RunConfig(100, 1.5, 5), model),
        "replicate 0.5: simulate": lambda: simulate(config, model, [0.5]),
        "replicate 2**64: simulate": lambda: simulate(config, model, [0, 1 << 64]),
        "unknown statistic": lambda: concentration_experiment(
            *args, 100, 100, 1, statistic="nope"
        ),
        "no particles": lambda: concentration_experiment(*args, 0, 100, 1),
        "N '10': concentration": lambda: concentration_experiment(*args, "10", 100, 1),
        "no reps: concentration": lambda: concentration_experiment(*args, 100, 0, 1),
        "no reps: moments": lambda: lp_moment_experiment(*args, 100, 0, 1),
        "no reps: stein": lambda: stein_experiment(*args, 100, 0, 1),
        "f constant: concentration": lambda: concentration_experiment(
            model, ones_f, 100, 100, 1
        ),
        "f constant: moments": lambda: lp_moment_experiment(model, ones_f, 100, 100, 1),
        "iid no reps": lambda: iid_moment_check([0.5, 0.5], [0, 1], 100, 0, 1),
        "iid no particles": lambda: iid_moment_check([0.5, 0.5], [0, 1], 0, 100, 1),
        "iid h length": lambda: iid_moment_check([0.5, 0.5], [0, 1, 2], 100, 100, 1),
        "iid h nan": lambda: iid_moment_check([0.5, 0.5], [np.nan, 1], 100, 100, 1),
        "iid N 1.5": lambda: iid_moment_check([0.5, 0.5], [0, 1], 1.5, 100, 1),
        "iid h constant": lambda: iid_moment_check([0.5, 0.5], [2.0, 2.0], 100, 200, 9),
        "iid h constant, length 3": lambda: iid_moment_check([0.5, 0.5], [1, 1, 1], 100, 100, 1),
    }


ILL_POSED = _ill_posed_calls()
# a bad model keeps the error its validator names
ILL_POSED_ERROR = {
    "spec short: analyze": EpsilonOutOfRange,
    "spec short: simulate": EpsilonOutOfRange,
    "eps nan: analyze": EpsilonOutOfRange,
    "eps nan: replicates": EpsilonOutOfRange,
    "eps nan: clt": EpsilonOutOfRange,
    "kernel row short: simulate": NonStochasticKernel,
    "spec short: replicates": EpsilonOutOfRange,
    "kernel row short: replicates": NonStochasticKernel,
    # a constant f makes every empirical MGF 1 and every moment 0: no verdict
    "f constant: concentration": DegenerateFunction,
    "f constant: moments": DegenerateFunction,
    "iid h constant": DegenerateFunction,
}


def _replace_stream_openers(monkeypatch, stream_fn, keys_fn):
    """Replace stream and replicate_keys at every fkbench module that binds them."""
    fakes = {"stream": (stream, stream_fn), "replicate_keys": (replicate_keys, keys_fn)}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fkbench":
            continue
        for attr, (real, fake) in fakes.items():
            if getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, fake)
    assert rng.stream is stream_fn and rng.replicate_keys is keys_fn


@pytest.mark.parametrize("case", list(ILL_POSED))
def test_ill_posed_verdict_fails_before_any_draw(case, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("an ill-posed experiment drew replicates")

    monkeypatch.setattr(engine, "simulate", no_draws)
    _replace_stream_openers(monkeypatch, no_draws, no_draws)
    with pytest.raises(ILL_POSED_ERROR.get(case, ConfigError)):
        ILL_POSED[case]()


def test_experiments_draw_only_at_replicate_step_addresses(monkeypatch):
    """Every draw of an experiment comes from a (seed, replicate, step) address.

    The draws are one simulate batch per population size, which lab reaches
    only through simulate_replicates; each batch keys replicates 0..reps-1
    at every step 0..H once.  A stream opened any other way is recorded
    with its own path.
    """
    entry = build("binary_hmm")  # the builder's own seed is opened here, unrecorded
    args = (entry.model, entry.f)
    addresses, batches = [], []

    def recording_stream(seed, *path):
        addresses.append(path)
        return stream(seed, *path)

    def recording_keys(seed, replicates, step):
        replicates = list(replicates)
        addresses.extend((r, step) for r in replicates)
        return replicate_keys(seed, replicates, step)

    def counting(*call_args):
        batches.append(call_args)
        return simulate(*call_args)

    _replace_stream_openers(monkeypatch, recording_stream, recording_keys)
    monkeypatch.setattr(engine, "simulate", counting)
    horizon = entry.model.horizon
    experiments = [  # (batches, replicates per batch, horizon, run)
        (len(lab.N_GRID), 50, horizon, lambda: clt_rate_experiment(*args, 50, 1)),
        (1, 20, horizon, lambda: concentration_experiment(*args, 50, 20, 2)),
        (1, 20, horizon, lambda: lp_moment_experiment(*args, 50, 20, 3)),
        (1, 20, 0, lambda: iid_moment_check([0.5, 0.5], [-0.5, 0.5], 50, 20, 4)),
        (1, 20, horizon, lambda: stein_experiment(*args, 50, 20, 5)),
    ]
    for n_batches, reps, steps, run in experiments:
        batches.clear()
        addresses.clear()
        run()
        assert len(batches) == n_batches
        assert addresses and all(len(path) == 2 for path in addresses)
        expected = [(r, q) for q in range(steps + 1) for r in range(reps)]
        assert addresses == expected * n_batches
    bound = [
        name for name in vars(lab)
        if name in ("simulate", "RunConfig") or name.startswith("validate_")
    ]
    assert bound == []


# bad input from a caller: a ConfigError, never a bare Python error
BAD_INPUT = {
    "smoothing cutoff": lambda: smoothing_bound(normal_cf(), normal_cf(), 0.0, 1.0),
    "burkholder order": lambda: burkholder_d(0),
    "burkholder order 2.5": lambda: burkholder_d(2.5),
    "truncate horizon 1.5": lambda: truncate(build("binary_hmm").model, 1.5),
    "mixing window": lambda: mixing_bounds(m=0, r=1.0, rho=0.5, n=1),
    "mixing window 1.5": lambda: mixing_bounds(m=1.5, r=1.0, rho=0.5, n=1),
    "mixing n 'x'": lambda: mixing_bounds(m=1, r=1.0, rho=0.5, n="x"),
    "mixing window past horizon": lambda: mixing_bounds(
        m=2, r=2.0, rho=0.5, n=1, model=build("ring_walk", d=16, horizon=1).model
    ),
    "mixing r nan": lambda: mixing_bounds(m=1, r=np.nan, rho=0.5, n=1),
    "mixing r 'x'": lambda: mixing_bounds(m=1, r="x", rho=0.5, n=1),
    "mixing rho nan": lambda: mixing_bounds(m=1, r=1.0, rho=np.nan, n=1),
    "mixing rho 'x'": lambda: mixing_bounds(m=1, r=1.0, rho="x", n=1),
    "smoothing cutoff 'x'": lambda: smoothing_bound(normal_cf(), normal_cf(), "x", 1.0),
    "smoothing cutoff nan": lambda: smoothing_bound(normal_cf(), normal_cf(), np.nan, 1.0),
    "smoothing density 'x'": lambda: smoothing_bound(normal_cf(), normal_cf(), 1.0, "x"),
    "smoothing density inf": lambda: smoothing_bound(normal_cf(), normal_cf(), 1.0, np.inf),
    "smoothing density negative": lambda: smoothing_bound(
        normal_cf(), normal_cf(0, 1.1), 5.0, -3.0
    ),
    "smoothing empirical cf 'a'": lambda: smoothing_bound(
        empirical_cf(["a"]), normal_cf(), 1.0, 1.0
    ),
    "empirical cf empty": lambda: empirical_cf([]),
    "empirical cf 2-D": lambda: empirical_cf([[0.1], [0.2]]),
    "empirical cf scalar": lambda: empirical_cf(0.5),
    "normal cf sd 'x'": lambda: normal_cf(0, "x"),
    "normal cf sd -1": lambda: normal_cf(0, -1),
    "normal cf sd 0": lambda: normal_cf(0, 0),
    "normal cf mean nan": lambda: normal_cf(np.nan),
    "empty sample": lambda: kolmogorov_distance([]),
    "nan sample": lambda: kolmogorov_distance([0.0, np.nan]),
    "non-numeric sample": lambda: kolmogorov_distance(["a"]),
    "column sample": lambda: kolmogorov_distance([[0.1], [0.2]]),
    "scalar sample": lambda: kolmogorov_distance(0.5),
    "2x2 sample": lambda: kolmogorov_distance([[0.1, 0.2], [0.3, 0.4]]),
    "stein 2-D pairs": lambda: stein_check([[0.1], [0.2]], [[0.0], [0.1]]),
    "stein scalar pairs": lambda: stein_check(0.5, 0.5),
    "stein shapes": lambda: stein_check([0.0, 1.0], [0.0]),
    "stein nan": lambda: stein_check([0.0, np.nan], [0.0, 0.0]),
    "stein non-numeric": lambda: stein_check(["a"], ["b"]),
    "eps grid scale 0": lambda: default_eps_grid(100, 0.0),
    "eps grid scale nan": lambda: default_eps_grid(100, np.nan),
    "eps grid scale negative": lambda: default_eps_grid(100, -1.0),
    "eps grid N 2.5": lambda: default_eps_grid(2.5, 1.0),
    "eps grid scale 'x'": lambda: default_eps_grid(100, "x"),
    "zoo d 2.5": lambda: build("ring_walk", d=2.5),
    "zoo horizon 2.5": lambda: build("binary_hmm", horizon=2.5),
    "zoo horizon True": lambda: build("binary_hmm", horizon=True),
    "zoo eps_scale nan": lambda: build("binary_hmm", eps_scale=np.nan),
    "zoo ratio 0": lambda: build("ring_walk", ratio=0),
    "zoo ratio negative": lambda: build("ring_walk", ratio=-2.0),
    "zoo holding [1]": lambda: build("ring_walk", holding=[1]),
    "zoo obs_seed 1.5": lambda: build("binary_hmm", obs_seed=1.5),
    "zoo stay0 'x'": lambda: build("path_genealogy", stay0="x"),
    "zoo unknown param": lambda: build("ring_walk", foo=1),
    "ring_walk ratio 0": lambda: ring_walk(ratio=0),
    "ring_walk d 0": lambda: ring_walk(d=0),
    "ring_walk holding [1]": lambda: ring_walk(holding=[1]),
    "binary_hmm horizon True": lambda: binary_hmm(horizon=True),
    "binary_hmm obs_seed 1.5": lambda: binary_hmm(obs_seed=1.5),
    "path_genealogy stay0 'x'": lambda: path_genealogy(stay0="x"),
    "iid_reduction p 'x'": lambda: iid_reduction(p="x"),
    "model eta0 'x'": lambda: make_model(["x", 1.0], [np.eye(2)], [np.ones(2)] * 2),
    "model kernel 'x'": lambda: make_model([1.0], [[["x"]]], [np.ones(1)] * 2),
    "model kernel ragged": lambda: make_model(
        [0.5, 0.5], [[[1.0, 0.0], [1.0]]], [np.ones(2)] * 2
    ),
    "model kernel 1-D": lambda: make_model([1.0], [[1.0]], [np.ones(1)] * 2),
    "model potential 'x'": lambda: make_model([1.0], [[[1.0]]], [[1.0], ["x"]]),
    "model eps 'x'": lambda: make_model([1.0], [[[1.0]]], [[1.0], [1.0]], ["x"]),
    "model eps scalar": lambda: make_model([1.0], [[[1.0]]], [[1.0], [1.0]], 0.5),
    "function 'a'": lambda: make_function([["a"]]),
    "iid mu non-numeric": lambda: iid_moment_check(["a", "b"], [0, 1], 100, 100, 1),
    "iid mu ragged": lambda: iid_moment_check([[0.5], [0.2, 0.3]], [0, 1], 100, 100, 1),
    "model file dims 5": lambda: model_from_dict(
        {"horizon": 0, "dims": 5, "eta0": [1.0], "kernels": [], "potentials": [[1.0]],
         "epsilons": []}
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUT))
def test_bad_input_raises_typed_error(case):
    with pytest.raises(ConfigError):
        BAD_INPUT[case]()


class TestSteinExperiment:
    def test_is_stein_check_on_normalized_decomposition(self, two_state):
        model, f = two_state
        report = stein_experiment(model, f, 100, 300, 4)
        flow = analyze(model, f)
        stats = simulate_replicates(flow, 100, 300, 4)
        scale = 1.0 / math.sqrt(flow.sigma_sq)
        assert report == stein_check(scale * stats.l[:, -1], scale * stats.b[:, -1])
        json.dumps(asdict(report), allow_nan=False)
