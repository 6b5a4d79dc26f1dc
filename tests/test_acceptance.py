"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here and nowhere else; nothing is recalibrated at run
time.  The replicate-heavy criteria pin their master seeds for exact
reproducibility.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import binom

import fkbench.zoo as zoo
from fkbench import tolerances as tol
from fkbench.bounds import burkholder_d
from fkbench.engine import RunConfig, simulate, simulate_replicates, doob_terms
from fkbench.flow import (
    analyze,
    compatibility_residual,
    exact_flow,
    limiting_increasing_process,
    mckean_kernel,
    step_phi,
    transport,
)
from fkbench.lab import (
    clt_rate_experiment,
    concentration_experiment,
    default_eps_grid,
    iid_moment_check,
    lp_moment_experiment,
    normal_cf,
    smoothing_bound,
    stein_experiment,
)
from fkbench.model import McKeanSpec
from fkbench.zoo import path_last_state

ALL_ENTRIES = ["binary_hmm", "ring_walk", "path_genealogy", "plain_markov",
               "iid_reduction"]


def report(name: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] {name}" + (f": {detail}" if detail else ""))
    assert passed, f"{name}: {detail}"


def test_exact_algebra_suite():
    t0 = time.time()
    worst_compat = worst_semi = worst_dual = worst_mass = 0.0
    rng = np.random.default_rng(20240201)
    for name in ALL_ENTRIES:
        entry = zoo.build(name)
        model, spec, f = entry.model, entry.spec, entry.f
        H = model.horizon
        flow = analyze(model, spec, f)

        # compatibility over 100 random measure/epsilon pairs per model
        for _ in range(100 if H > 0 else 0):
            n = int(rng.integers(H))
            mu = rng.dirichlet(np.ones(model.dims[n]))
            eps_n = rng.uniform(0.0, 1.0 / model.potentials[n].max())
            eps = list(spec.epsilons)
            eps[n] = eps_n
            residual = compatibility_residual(
                model, McKeanSpec(epsilons=tuple(eps)), mu, n
            )
            worst_compat = max(worst_compat, residual)

        # semigroup transport consistency
        for p in range(H + 1):
            for n in range(p, H + 1):
                gap = np.max(
                    np.abs(
                        flow.etas[p] @ transport(model, flow.etas, p, n)
                        - flow.etas[n]
                    )
                )
                worst_semi = max(worst_semi, float(gap))

        # variance increments: recompute the two closed forms directly
        for p, v in enumerate(flow.fpn):
            if p == 0:
                continue
            K = mckean_kernel(model, spec, flow.etas[p - 1], p - 1)
            kf = K @ v
            form1 = float(flow.etas[p - 1] @ (K @ (v * v) - kf * kf))
            form2 = float(
                step_phi(model, flow.etas[p - 1], p - 1) @ (v * v)
                - flow.etas[p - 1] @ (kf * kf)
            )
            worst_dual = max(worst_dual, abs(form1 - form2))

        # one-step mass transport identity
        for q in range(1, H + 1):
            lhs = transport(model, flow.etas, q - 1, q).sum(axis=1)
            rhs = model.potentials[q - 1] / float(
                flow.etas[q - 1] @ model.potentials[q - 1]
            )
            worst_mass = max(worst_mass, float(np.max(np.abs(lhs - rhs))))

    elapsed = time.time() - t0
    ok = (
        worst_compat <= tol.ALGEBRA
        and worst_semi <= tol.PRODUCT
        and worst_dual <= tol.ALGEBRA
        and worst_mass <= tol.ALGEBRA
        and elapsed < 10.0
    )
    report(
        "exact-algebra suite",
        ok,
        f"compat {worst_compat:.2e}, transport {worst_semi:.2e}, "
        f"dual {worst_dual:.2e}, mass {worst_mass:.2e}, {elapsed:.1f}s",
    )


def test_per_run_decomposition_identities():
    t0 = time.time()
    entry = zoo.build("binary_hmm")
    flow = analyze(entry.model, entry.spec, entry.f, terminal=5)
    config = RunConfig(n_particles=500, seed=77, horizon=5)
    worst = 0.0
    for rep in range(200):
        trace = simulate(config, entry.model, entry.spec, replicate=rep)
        series = doob_terms(trace, flow, entry.model, entry.f, 5)
        worst = max(worst, series.residual_mean[0], series.residual_field[0])
    elapsed = time.time() - t0
    ok = worst <= tol.PRODUCT and elapsed < 30.0
    report(
        "per-run decomposition identities",
        ok,
        f"worst residual {worst:.2e} over 200 replicates, {elapsed:.1f}s",
    )


def test_path_space_consistency():
    t0 = time.time()
    worst = 0.0
    for horizon in (3, 6):
        flat = zoo.build("binary_hmm", horizon=horizon)
        deep = zoo.build("path_genealogy", horizon=horizon)
        flat_flow = exact_flow(flat.model)
        deep_flow = exact_flow(deep.model)
        for n in range(horizon + 1):
            last = np.array([path_last_state(c, n) for c in range(2 ** (n + 1))])
            marginal = np.array(
                [deep_flow.etas[n][last == x].sum() for x in range(2)]
            )
            worst = max(worst, float(np.max(np.abs(marginal - flat_flow.etas[n]))))
    elapsed = time.time() - t0
    ok = worst <= tol.ALGEBRA and elapsed < 5.0
    report(
        "path-space marginal consistency",
        ok,
        f"worst marginal gap {worst:.2e} (horizons 3, 6), {elapsed:.1f}s",
    )


def test_gaussian_rate_experiment():
    entry = zoo.build("binary_hmm")
    rep = clt_rate_experiment(
        entry.model, entry.spec, entry.f, 5, [100, 400, 1600, 6400],
        n_reps=2000, master_seed=1, n_boot=200,
    )
    ratio_ok = rep.distances[-1] < rep.distances[0] / 4.0
    ok = rep.passed and ratio_ok
    report(
        "normalized-fluctuation rate (interacting)",
        ok,
        f"slope {rep.slope:.3f} in [-0.65, -0.35], distances "
        f"{[round(d, 4) for d in rep.distances]}, tail < head/4: {ratio_ok}",
    )


def test_gaussian_rate_calibration_twin():
    entry = zoo.build("iid_reduction")
    rep = clt_rate_experiment(
        entry.model, entry.spec, entry.f, 0, [100, 400, 1600, 6400],
        n_reps=20000, master_seed=1, n_boot=200,
    )
    report(
        "normalized-fluctuation rate (independent calibration twin)",
        rep.passed,
        f"slope {rep.slope:.3f} in [-0.65, -0.35], distances "
        f"{[round(d, 4) for d in rep.distances]}",
    )


def test_increasing_process_convergence():
    entry = zoo.build("binary_hmm")
    flow = analyze(entry.model, entry.spec, entry.f, terminal=5)
    limit = limiting_increasing_process(
        entry.model, entry.spec, flow.etas, entry.f, 5
    ).sum()
    medians = {}
    for N in (100, 10_000):
        stats = simulate_replicates(
            RunConfig(N, 909, 5), entry.model, entry.spec, entry.f, 200, flow=flow
        )
        medians[N] = float(np.median(np.abs(stats.c_total - limit)))
    shrink = medians[100] / medians[10_000]
    ok = shrink >= 5.0
    report(
        "increasing-process convergence",
        ok,
        f"median |realized - limit| {medians[100]:.4f} -> {medians[10_000]:.4f}, "
        f"shrink factor {shrink:.1f} >= 5",
    )


def test_concentration_bound():
    entry = zoo.build("binary_hmm")
    all_ok = True
    details = []
    for N in (100, 1000):
        grid = default_eps_grid(N, 1.0)
        rep = concentration_experiment(
            entry.model, entry.spec, entry.f, 5, N, grid, n_reps=3000,
            master_seed=31,
        )
        all_ok &= rep.passed
        worst_gap = max(
            math.log(e) - lb for e, lb in zip(rep.empirical, rep.log_bounds)
        )
        details.append(f"N={N} worst log gap {worst_gap:.3g}")

    # horizon-0 coin model: the exact moment generating function of the
    # absolute empirical-mean error, by binomial enumeration, zero allowance
    N = 100
    b0 = 2.0  # two states: unit mass ratio, total-variation coefficient 1
    k = np.arange(N + 1)
    pmf = binom.pmf(k, N, 0.5)
    v = math.sqrt(N) * np.abs(k / N - 0.5)
    exact_ok = True
    for eps in default_eps_grid(N, 1.0):
        exact_mgf = float(pmf @ np.exp(eps * v))
        bound = (1.0 + eps * b0 / math.sqrt(2.0)) * math.exp((eps * b0) ** 2 / 2.0)
        exact_ok &= exact_mgf <= bound
    all_ok &= exact_ok
    details.append(f"exact binomial (zero allowance): {exact_ok}")
    report("exponential concentration bound", all_ok, "; ".join(details))


def test_increasing_process_exponential_continuity():
    entry = zoo.build("binary_hmm")
    N = 1000
    scale = entry.f.oscillation(5) ** 2 / 2.0
    grid = default_eps_grid(N, scale)
    rep = concentration_experiment(
        entry.model, entry.spec, entry.f, 5, N, grid, n_reps=2000,
        master_seed=47, statistic="delta_c",
    )
    worst_gap = max(
        math.log(e) - lb for e, lb in zip(rep.empirical, rep.log_bounds)
    )
    report(
        "increasing-process exponential continuity",
        rep.passed,
        f"a3 constant {rep.constant:.3g}, worst log gap {worst_gap:.3g}",
    )


def test_moment_bounds():
    ok_units = burkholder_d(2) == 1.0 and burkholder_d(4) == 3.0
    entry = zoo.build("binary_hmm")
    particle = lp_moment_experiment(
        entry.model, entry.spec, entry.f, 5, 1000, 6, n_reps=2000, master_seed=53
    )
    iid = iid_moment_check([0.5, 0.5], [-0.5, 0.5], 1000, 6, 2000, master_seed=59)
    ok = ok_units and particle.passed and iid.passed
    report(
        "scaled moment bounds",
        ok,
        f"d(2)=1, d(4)=3: {ok_units}; particle table: {particle.passed}; "
        f"independent table: {iid.passed}",
    )


def test_smoothing_and_perturbation_inequalities():
    density_sup = 1.0 / math.sqrt(2.0 * math.pi)
    grid = np.linspace(-10.0, 10.0, 400_001)
    from scipy.special import ndtr

    smoothing_ok = True
    for shift in (0.05, 0.2, 0.5):
        true_dist = float(np.max(np.abs(ndtr(grid - shift) - ndtr(grid))))
        bound = smoothing_bound(normal_cf(mean=shift), normal_cf(), 40.0, density_sup)
        smoothing_ok &= bound >= true_dist

    entry = zoo.build("binary_hmm")
    stein = stein_experiment(entry.model, entry.spec, entry.f, 5, 500, 10_000, 61)
    ok = smoothing_ok and stein.passed
    report(
        "smoothing and perturbation inequalities",
        ok,
        f"smoothing bound dominates on shifts: {smoothing_ok}; realized pairs "
        f"lhs {stein.lhs:.4f} <= rhs {stein.rhs:.4f} + {stein.allowance:.4f}",
    )
