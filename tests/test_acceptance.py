"""End-to-end acceptance checks.

One check per headline property of the toolkit, each printing a single
PASS/FAIL line with the measured margin so a full run reads as a report.
The Monte Carlo seeds and lengths are frozen calibration choices; the
tolerances are the contract.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import swarmpattern.stats as stats
from swarmpattern import (
    AttractorMoments,
    DegenerateParameterError,
    IidUniformAttractors,
    IpsoParams,
    Mapso,
    MovementPattern,
    RandomWalkAttractors,
    SimConfig,
    autocorrelation,
    build_moment_system,
    default_plan,
    empirical_autocorrelation,
    empirical_focus,
    empirical_moments,
    empirical_movement_distance,
    expectation_fixed_point,
    focus,
    gamma,
    iid_uniform_for_moments,
    ipso_to_moments,
    is_order2_convergent,
    iterate_to_fixed_point,
    rho1,
    run_experiment,
    simulate,
    solve_coefficients,
    tournament,
    variance_fixed_point,
    vc,
    wilcoxon_rank_sum,
)
from swarmpattern.schedules import _mapso_profile, coefficient_table

from conftest import TRACE_BURN_IN

SLOW_MIXING = IpsoParams(0.73084, 1.6443, 1.0)
FAST_MIXING = IpsoParams(0.98237, 0.19824, 1.0)
PURE_RANDOM = IpsoParams(0.0, 1.0, 1.0)
WIDE_IID = IidUniformAttractors(p_range=(-9.0, 11.0), g_range=(-5.0, 15.0))
WALK = RandomWalkAttractors(p0=1.0, g0=5.0)
LONG = SimConfig(iterations=101_000, burn_in=1_000, seed=2)


def _verdict(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def _floored_rel(got, want):
    return abs(got - want) / max(1.0, abs(want))


def test_01_empirical_autocorrelation_matches_analytic_sequence(capsys):
    worst = 0.0
    for params in (SLOW_MIXING, FAST_MIXING):
        analytic = autocorrelation(ipso_to_moments(params), 20).rho
        for process in (WIDE_IID, WALK):
            trace = simulate(params, process, LONG)
            empirical = empirical_autocorrelation(trace, LONG.burn_in, 20).rho
            worst = max(worst, float(np.max(np.abs(empirical[1:] - analytic[1:]))))
    anchors = (rho1(ipso_to_moments(SLOW_MIXING)),
               rho1(ipso_to_moments(FAST_MIXING)))
    anchors_ok = (abs(anchors[0] - 0.0500) < 1e-4
                  and abs(anchors[1] - 0.9000) < 1e-4)
    _verdict(capsys, "autocorrelation fidelity",
             worst <= 0.03 and anchors_ok,
             f"worst lag 1-20 error {worst:.4f} (tolerance 0.03); "
             f"lag-1 anchors {anchors[0]:.4f}/{anchors[1]:.4f} vs 0.0500/0.9000")


def test_02_pure_random_search_has_no_memory(capsys):
    analytic = autocorrelation(ipso_to_moments(PURE_RANDOM), 20).rho
    exact_zero = bool(np.all(analytic[1:] == 0.0))
    trace = simulate(PURE_RANDOM, WIDE_IID, LONG)
    empirical = empirical_autocorrelation(trace, LONG.burn_in, 20).rho
    worst = float(np.max(np.abs(empirical[1:])))
    _verdict(capsys, "pure-random-search uniqueness",
             exact_zero and worst < 0.02,
             f"analytic lags 1-20 all exactly 0: {exact_zero}; "
             f"worst empirical |rho| {worst:.4f} (tolerance 0.02)")


def test_03_iterated_moments_reach_the_closed_forms(capsys, stable_sets,
                                                    stable_set_traces):
    worst_closed = 0.0
    worst_mc = 0.0
    for (params, coeffs, attractors), trace in zip(stable_sets,
                                                   stable_set_traces):
        system = build_moment_system(coeffs, attractors)
        settled = iterate_to_fixed_point(system)
        e_x = expectation_fixed_point(coeffs, attractors)
        v_x = variance_fixed_point(coeffs, attractors)
        worst_closed = max(worst_closed,
                           _floored_rel(settled.mean, e_x),
                           _floored_rel(settled.variance, v_x))
        _, sample_var = empirical_moments(trace, TRACE_BURN_IN)
        worst_mc = max(worst_mc, abs(sample_var - v_x) / v_x)
    _verdict(capsys, "moment fixed points",
             len(stable_sets) >= 20 and worst_closed <= 1e-8
             and worst_mc <= 0.05,
             f"{len(stable_sets)} stable sets; fixed point vs closed form "
             f"{worst_closed:.2e} (tolerance 1e-8); Monte Carlo variance "
             f"error {worst_mc:.3%} (tolerance 5%)")


def test_04_variance_splits_into_attractor_and_coefficient_factors(
        capsys, stable_sets):
    worst = 0.0
    for params, coeffs, attractors in stable_sets:
        v_x = variance_fixed_point(coeffs, attractors)
        split = gamma(attractors, params.alpha) * vc(params)
        worst = max(worst, abs(v_x - split) / max(1.0, v_x))
    _verdict(capsys, "variance factorization identity", worst < 1e-9,
             f"worst |V_x - gamma*V_c| {worst:.2e} relative (tolerance 1e-9)")


def test_05_pattern_solver_round_trips_the_whole_grid(capsys):
    rhos = [x / 10.0 for x in range(-9, 10)]
    vcs = [0.05, 0.1, 0.15, 0.5, 1.0, 3.0, 8.0, 30.0]
    focuses = [0.04, 0.25, 1.0, 4.0, 25.0]
    figure_pairs = [MovementPattern(-0.8, 0.1, 1.0), MovementPattern(-0.1, 8.0, 1.0),
                    MovementPattern(0.1, 0.15, 1.0), MovementPattern(0.8, 3.0, 1.0)]
    worst = 0.0
    solved = 0
    degenerate = 0
    all_stable = True
    for r, v, f, sign in itertools.product(rhos, vcs, focuses, (1, -1)):
        target = MovementPattern(rho1=r, vc=v, focus=f)
        if f == 1.0 and sign == -1:
            with pytest.raises(DegenerateParameterError):
                solve_coefficients(target, alpha_sign=sign)
            degenerate += 1
            continue
        params = solve_coefficients(target, alpha_sign=sign)
        coeffs = ipso_to_moments(params)
        worst = max(worst,
                    abs(rho1(coeffs) - r) / max(1.0, abs(r)),
                    abs(vc(params) - v) / max(1.0, v),
                    abs(focus(coeffs) - f) / max(1.0, f))
        all_stable = all_stable and is_order2_convergent(coeffs)
        solved += 1
    for target in figure_pairs:
        params = solve_coefficients(target)
        worst = max(worst, abs(vc(params) - target.vc) / max(1.0, target.vc))
    _verdict(capsys, "pattern solver round-trip",
             worst <= 1e-9 and all_stable and solved == 1368
             and degenerate == 152,
             f"{solved} grid targets + 4 reference pairs recovered, worst "
             f"error {worst:.2e} (tolerance 1e-9); all solutions stable: "
             f"{all_stable}; {degenerate} sign-degenerate targets refused")


def test_06_movement_distance_law(capsys, stable_sets, stable_set_traces):
    worst = 0.0
    for (params, coeffs, attractors), trace in zip(stable_sets,
                                                   stable_set_traces):
        v_x = variance_fixed_point(coeffs, attractors)
        analytic = 2.0 * v_x * (1.0 - rho1(coeffs))
        measured = empirical_movement_distance(trace, TRACE_BURN_IN)
        worst = max(worst, abs(measured - analytic) / analytic)
    _verdict(capsys, "movement-distance law", worst <= 0.05,
             f"worst relative error {worst:.3%} over {len(stable_sets)} "
             f"stable sets (tolerance 5%)")


def test_07_focus_law(capsys):
    attractors = AttractorMoments(mu_p=0.0, sigma_p=1.0, mu_g=10.0, sigma_g=1.0)
    config = SimConfig(iterations=101_000, burn_in=1_000, seed=0)
    worst = 0.0
    for alpha in (1.0 / 3.0, 1.0, 3.0):
        params = solve_coefficients(
            MovementPattern(rho1=0.3, vc=1.0, focus=alpha ** 2), alpha_sign=1)
        trace = simulate(params, iid_uniform_for_moments(attractors), config)
        measured = empirical_focus(trace, config.burn_in,
                                   attractors.mu_p, attractors.mu_g)
        worst = max(worst, abs(measured - alpha ** 2) / alpha ** 2)
    _verdict(capsys, "focus law", worst <= 0.15,
             f"worst relative error {worst:.3%} for alpha in "
             f"{{1/3, 1, 3}} (tolerance 15%)")


def test_08_adaptive_schedule_is_feasible_and_faithful(capsys):
    t_max = 10_000
    schedule = Mapso()
    worst = 0.0
    all_stable = True
    vc_seen, rho_seen, focus_seen = [], [], []
    profile = _mapso_profile(np.arange(t_max + 1), t_max, schedule)
    table = coefficient_table(schedule, t_max)
    for t in range(t_max + 1):
        params = IpsoParams(*table[t, :3])
        coeffs = ipso_to_moments(params)
        all_stable = all_stable and is_order2_convergent(coeffs)
        rho_t, vc_t, focus_t = (float(column[t]) for column in profile)
        targets = (vc_t, rho_t, focus_t)
        got = (vc(params), rho1(coeffs), focus(coeffs))
        worst = max(worst, *(abs(g - w) / max(1.0, abs(w))
                             for g, w in zip(got, targets)))
        vc_seen.append(targets[0])
        rho_seen.append(targets[1])
        focus_seen.append(targets[2])
    endpoints_ok = (max(vc_seen) == 25.0 and min(vc_seen) == 5.0
                    and min(rho_seen) == 0.1 and max(rho_seen) == 0.8
                    and min(focus_seen) == 0.25 and max(focus_seen) == 25.0)
    _verdict(capsys, "adaptive schedule feasibility and fidelity",
             worst <= 1e-9 and all_stable and endpoints_ok,
             f"all {t_max + 1} ticks stable: {all_stable}; worst pattern "
             f"error {worst:.2e} (tolerance 1e-9); profile spans "
             f"25/5, 0.1/0.8, 0.25/25: {endpoints_ok}")


def test_09_rank_sum_test_correctness(capsys, monkeypatch):
    def brute_force_p(a, b):
        n1, n = a.size, a.size + b.size
        ranks = np.empty(n)
        ranks[np.argsort(np.concatenate([a, b]))] = np.arange(1, n + 1)
        u_obs = ranks[:n1].sum() - n1 * (n1 + 1) / 2
        lower = upper = total = 0
        for combo in itertools.combinations(range(1, n + 1), n1):
            u = sum(combo) - n1 * (n1 + 1) / 2
            total += 1
            lower += u <= u_obs
            upper += u >= u_obs
        return min(1.0, 2.0 * min(lower, upper) / total)

    rng = np.random.default_rng(11)
    exact_ok = True
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            a = rng.normal(0.0, 1.0, n1)
            b = rng.normal(1.0, 1.0, n2)
            exact_ok = exact_ok and (wilcoxon_rank_sum(a, b)
                                     == brute_force_p(a, b))

    rng = np.random.default_rng(5)
    pairs = []
    for n1 in range(5, 13):
        for n2 in range(5, 13):
            for _ in range(3):
                pairs.append((rng.normal(0.0, 1.0, n1),
                              rng.normal(0.7, 1.0, n2)))
    exact_p = [wilcoxon_rank_sum(a, b) for a, b in pairs]
    monkeypatch.setattr(stats, "APPROX_MIN_PER_SIDE", 0)
    worst = max(abs(wilcoxon_rank_sum(a, b) - p)
                for (a, b), p in zip(pairs, exact_p))
    _verdict(capsys, "rank-sum test correctness",
             exact_ok and worst < 0.02,
             f"exact path equals permutation oracle on all pairs up to 8+8: "
             f"{exact_ok}; approximation vs exact worst gap {worst:.4f} "
             f"for sizes 5-12 (tolerance 0.02)")


def test_10_tournament_pipeline(capsys, tmp_path):
    plan = default_plan(dimension=10, runs=15, base_seed=0)
    results = run_experiment(plan, out_dir=tmp_path, parallelism=1)
    cells = sorted((tmp_path / "results").iterdir())
    snapshot = {p.name: p.read_bytes() for p in cells}

    cells[0].unlink()
    rerun = run_experiment(plan, out_dir=tmp_path, parallelism=1)
    deterministic = (
        {p.name: p.read_bytes() for p in sorted((tmp_path / "results").iterdir())}
        == snapshot
        and np.array_equal(results.values, rerun.values))

    tm = tournament(results)
    antisymmetric = np.array_equal(tm.t, -tm.t.T)
    edge_set = set(tm.edges)
    no_two_cycles = all((b, a) not in edge_set for a, b in edge_set)

    i = results.algorithms.index("icpso")
    k = results.functions.index("sphere")
    sphere_median = float(np.median(results.values[i, k]))

    _verdict(capsys, "tournament pipeline",
             deterministic and antisymmetric and no_two_cycles
             and sphere_median < 1e-1,
             f"deterministic resume: {deterministic}; antisymmetric totals: "
             f"{antisymmetric}; 2-cycles: {0 if no_two_cycles else 'present'}; "
             f"constant-baseline sphere median {sphere_median:.2e} "
             f"(threshold 1e-1)")
