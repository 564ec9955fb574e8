"""Acceptance gate: one test per published guarantee, twelve in all.

Each test prints a single PASS or FAIL line (visible under pytest -s, and on
any failure) before asserting, so a red gate still reports the status of every
criterion it reached.  Covered: the exact-L rate bound, the coefficient
recursion identities and growth floors, the strongly convex rate, iterate
distance bounds, adaptive-mode work accounting, the universal mode's epsilon
scaling law, the stochastic mode's mean gap and call budget, restart halving,
the regularization meta-strategy, the inexact descent majorant, brute-force
prox equivalence, and the degeneracy chain between the backtracking modes.
"""

import math
import time
from dataclasses import replace

import numpy as np

from brute_prox import grid_refine_prox, projected_gradient_prox
from triangle_opt import (EstimateFunction, NoiseModel, SimpleTerm,
                          SolverConfig, StoppingRule,
                          alpha_next, box, bregman_divergence, check_bounds,
                          composite_prox_solve, entropy_setup, euclidean_ball,
                          euclidean_setup, holder_majorant_L, make_problem,
                          recenter, regularize, restart_run, run, simplex)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")


def test_criterion_01_exact_l_rate_bound_on_smooth_quadratic():
    t0 = time.perf_counter()
    problem = make_problem("quadratic", dimension=50, seed=0)
    big_l = problem.objective.smoothness_meta["L"]
    x_star = problem.objective.known_optimum[0]
    r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
    config = SolverConfig(mode="mst_exact_L", L_known=big_l, max_iters=2001)
    report = run(problem.objective, problem.setup, config)
    check = check_bounds(report.trace, "t1", {"L": big_l, "R2": r_sq})
    elapsed = time.perf_counter() - t0
    ok = check.passed and len(report.trace) == 2001 and elapsed < 5.0
    _report(1, ok, "gap <= 4*L*R2/(k+1)^2 + 1e-10 for every k <= 2000 on the "
            f"50-D quadratic (worst margin {check.worst_margin:.3e}, {elapsed:.2f} s)")
    assert len(report.trace) == 2001
    assert check.passed, f"rate bound violated at k in {check.failing_k[:5]}"
    assert elapsed < 5.0


def test_criterion_02_coefficient_identities_and_growth_floors():
    # Verify the one-step coefficient recursion and its growth guarantees on a
    # grid of curvature constants, out to k = 10^4.  The recursion is run
    # literally until A_k passes 1e250; past that point a per-step growth
    # factor that only understates the true ratio is accumulated in log space,
    # so the tracked value stays a true lower bound on log A_k and the floor
    # comparisons remain sound out to k = 10^4 without overflowing doubles.
    k_max = 10_000
    worst_identity = 0.0
    worst_growth = math.inf
    worst_radical = math.inf
    worst_exp = math.inf
    for big_l in (0.5, 1.0, 2.0, 10.0):
        for mu_tilde in (0.0, 1e-4, 1e-3, 1e-2):
            a = 1.0 / big_l
            log_a = math.log(a)
            log_rho = None
            radical_step = math.log1p(0.5 * math.sqrt(mu_tilde / big_l))
            exp_rate = 0.5 * math.sqrt(mu_tilde / big_l)
            for k in range(k_max + 1):
                if k > 0:
                    if log_rho is None:
                        alpha, a_new = alpha_next(big_l, a, mu_tilde)
                        ratio = (a_new / alpha) * ((1.0 + a * mu_tilde) / alpha)
                        worst_identity = max(worst_identity,
                                             abs(ratio - big_l) / big_l)
                        a = a_new
                        log_a = math.log(a)
                        if a > 1e250:
                            rho = mu_tilde * (1.0 + math.sqrt(
                                1.0 + 4.0 * big_l / (mu_tilde + 1.0 / a))) / (2.0 * big_l)
                            log_rho = math.log1p(rho)
                    else:
                        log_a += log_rho
                worst_growth = min(worst_growth, log_a - (
                    2.0 * math.log(k + 1.0) - math.log(4.0 * big_l)))
                worst_radical = min(worst_radical, log_a - (
                    2.0 * k * radical_step - math.log(big_l)))
                if big_l <= 1.0:
                    # the plain-exponential floor needs A_0 = 1/L >= 1, so it
                    # only holds from the start when L <= 1
                    worst_exp = min(worst_exp, log_a - k * exp_rate)
    ok = (worst_identity <= 1e-12 and worst_growth >= -1e-9
          and worst_radical >= -1e-9 and worst_exp >= -1e-9)
    _report(2, ok, "coefficient recursion identities and growth floors, k <= 1e4 "
            f"(identity err {worst_identity:.1e}; min log slacks: quadratic "
            f"{worst_growth:.2e}, geometric {worst_radical:.2e}, exp {worst_exp:.2f})")
    assert worst_identity <= 1e-12
    assert worst_growth >= -1e-9
    assert worst_radical >= -1e-9
    assert worst_exp >= -1e-9


def test_criterion_03_strongly_convex_rate_bound():
    problem = make_problem("quadratic", dimension=50, seed=0, lam_min=0.01)
    big_l = problem.objective.smoothness_meta["L"]
    mu = problem.objective.smoothness_meta["mu"]
    x_star = problem.objective.known_optimum[0]
    r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
    config = SolverConfig(mode="mst_exact_L", L_known=big_l, mu=mu, max_iters=3001)
    report = run(problem.objective, problem.setup, config)
    check = check_bounds(report.trace, "t2_t3", {"L": big_l, "R2": r_sq, "mu": mu})
    ok = check.passed and len(report.trace) == 3001
    _report(3, ok, "gap <= min(4*L*R2/(k+1)^2, L*R2*exp(-(k/2)*sqrt(mu/L))) + 1e-10 "
            f"for k <= 3000 at mu/L = {mu / big_l:g} "
            f"(worst margin {check.worst_margin:.3e})")
    assert len(report.trace) == 3001
    assert check.passed, f"rate bound violated at k in {check.failing_k[:5]}"


def test_criterion_04_iterate_distance_bounds_on_exact_l_runs():
    cases = [
        ("quadratic, free space", make_problem("quadratic", dimension=15, seed=5)),
        ("quadratic, box", make_problem("quadratic", dimension=15, seed=5,
                                        feasible="box")),
        ("linear on the simplex", make_problem("simplex_linear", dimension=6, seed=0)),
    ]
    worst = math.inf
    results = []
    for label, problem in cases:
        big_l = problem.objective.smoothness_meta["L"]
        x_star = problem.objective.known_optimum[0]
        r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
        config = SolverConfig(mode="mst_exact_L", L_known=big_l, max_iters=200)
        report = run(problem.objective, problem.setup, config)
        check = check_bounds(report.trace, "c1", {"R2": r_sq})
        worst = min(worst, check.worst_margin)
        results.append((label, check))
    ok = all(check.passed for _, check in results)
    _report(4, ok, "||u-x*||^2 <= 2*R2 and max(||x-x*||^2, ||y-x*||^2) <= "
            f"4*R2 + 2*||x0-y0||^2 on {len(cases)} exact-L runs "
            f"(worst margin {worst:.3e})")
    for label, check in results:
        assert check.passed, f"{label}: distance bound violated at k in {check.failing_k[:5]}"


def test_criterion_05_adaptive_mode_work_accounting():
    problem = make_problem("quadratic", dimension=20, seed=0, lam_min=0.9)
    big_l = problem.objective.smoothness_meta["L"]
    config = SolverConfig(mode="amst_adaptive", L0=big_l / 1024.0, max_iters=501)
    report = run(problem.objective, problem.setup, config)
    check = check_bounds(report.trace, "t6_work", {"L": big_l})
    trace = report.trace
    n_final = int(trace.last("k"))
    log_term = math.log2(2.0 * big_l / (big_l / 1024.0))
    f_budget = 4.0 * n_final + log_term + 4.0
    g_budget = 2.0 * n_final + log_term + 2.0
    counters_match = (report.total_f_calls == int(trace.last("cum_f"))
                      and report.total_grad_calls == int(trace.last("cum_grad")))
    ok = check.passed and counters_match and n_final == 500
    _report(5, ok, f"adaptive run from L0 = L/1024: {report.total_f_calls} value calls "
            f"<= {f_budget:.0f} and {report.total_grad_calls} gradient calls "
            f"<= {g_budget:.0f} at N = {n_final}")
    assert n_final == 500
    assert check.passed, f"work budget exceeded at k in {check.failing_k[:5]}"
    assert counters_match


def test_criterion_06_universal_mode_epsilon_scaling():
    t0 = time.perf_counter()
    problem = make_problem("holder_norm_power", dimension=5, p=1.5)
    center = 10.0 * np.ones(5) / math.sqrt(5.0)
    setup = recenter(problem.setup, center)
    x_star, f_star = problem.objective.known_optimum
    r_sq = bregman_divergence(setup, x_star, center)
    points = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        config = SolverConfig(mode="umst_universal", epsilon=eps, max_iters=40_000,
                              stopping=StoppingRule(kind="certified_gap", r_sq=r_sq))
        report = run(problem.objective, setup, config)
        assert report.certified_gap is not None and report.certified_gap <= eps
        gap = problem.objective.composite_value(report.final_x) - f_star
        assert gap <= eps + 1e-12, f"true gap {gap:.3e} above target {eps:g}"
        points.append((eps, report.iterations))
    check = check_bounds(None, "t9_scaling", {"nu": 0.5, "points": points})
    slope = check.rows[0]["measured"]
    elapsed = time.perf_counter() - t0
    ok = check.passed and elapsed < 60.0
    counts = ", ".join(f"{eps:g}: {n}" for eps, n in points)
    _report(6, ok, f"universal mode reaches each certified target ({counts}); "
            f"log-log slope {slope:.3f} <= 1.1 ({elapsed:.1f} s)")
    assert check.passed, f"scaling slope {slope:.3f} above limit"
    assert elapsed < 60.0


def test_criterion_07_stochastic_mode_mean_gap_and_call_budget():
    t0 = time.perf_counter()
    problem = make_problem("quadratic", dimension=20, seed=0)
    x_star, f_star = problem.objective.known_optimum
    r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
    oracle = replace(problem.objective, noise_model=NoiseModel(kind="gaussian"))
    eps = 1e-2
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=eps, D=1.0,
                          max_iters=5000,
                          stopping=StoppingRule(kind="certified_gap", r_sq=r_sq))
    gaps = []
    budget_checks = []
    for seed in range(20):
        report = run(oracle, problem.setup, config, rng=seed)
        gaps.append(problem.objective.composite_value(report.final_x) - f_star)
        budget_checks.append(check_bounds(
            report.trace, "t10_calls", {"D": 1.0, "R2": r_sq, "epsilon": eps}))
    mean_gap = float(np.mean(gaps))
    budgets_ok = all(c.passed for c in budget_checks)
    elapsed = time.perf_counter() - t0
    ok = mean_gap <= 2.0 * eps and budgets_ok and elapsed < 120.0
    worst_budget = min(c.worst_margin for c in budget_checks)
    _report(7, ok, f"20-seed stochastic run at D = 1, eps = {eps:g}: mean gap "
            f"{mean_gap:.4f} <= {2 * eps:g}, every call count within "
            f"4*(4*D*R2/eps^2 + 2N) (worst margin {worst_budget:.0f}, {elapsed:.1f} s)")
    assert mean_gap <= 2.0 * eps
    assert budgets_ok
    assert elapsed < 120.0


def test_criterion_08_restart_halving_of_the_gap():
    problem = make_problem("quadratic", dimension=10, seed=1, lam_min=0.1)
    big_l = problem.objective.smoothness_meta["L"]
    mu = problem.objective.smoothness_meta["mu"]
    report = restart_run(problem.objective, problem.setup, L=big_l, mu=mu,
                         omega=1.0, K=8)
    check = check_bounds(report.trace, "t5_halving", {})
    ok = check.passed and len(report.trace) == 8
    _report(8, ok, "gap at restart k <= mu*||y0-x*||^2 / 2^(k+1) + 1e-9 for "
            f"k = 1..8 (worst margin {check.worst_margin:.3e})")
    assert len(report.trace) == 8
    assert check.passed, f"halving bound violated at restarts {check.failing_k}"


def test_criterion_09_regularization_reaches_original_target():
    problem = make_problem("quadratic", dimension=10, seed=0, lam_min=1e-8)
    x_star, f_star = problem.objective.known_optimum
    r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
    results = []
    for eps in (1e-2, 1e-4):
        reg, mu_reg = regularize(problem.objective, problem.setup,
                                 epsilon=eps, R_sq=r_sq)
        assert math.isclose(mu_reg, eps / (2.0 * r_sq), rel_tol=1e-15)
        # solve the shifted problem to eps/2: the certified bound
        # r_sq/A + eps/4 crosses the adaptive mode's 2*config.epsilon target
        config = SolverConfig(mode="amst_adaptive", mu=mu_reg, epsilon=eps / 4.0,
                              max_iters=20_000,
                              stopping=StoppingRule(kind="certified_gap", r_sq=r_sq))
        report = run(reg, problem.setup, config)
        orig_gap = problem.objective.composite_value(report.final_x) - f_star
        results.append((eps, report.certified_gap, orig_gap, report.iterations))
    ok = all(cert <= eps / 2.0 and gap <= eps for eps, cert, gap, _ in results)
    detail = "; ".join(f"eps {eps:g}: certified {cert:.2e} <= {eps / 2:g}, "
                       f"original gap {gap:.2e} <= {eps:g} ({n} iters)"
                       for eps, cert, gap, n in results)
    _report(9, ok, detail)
    for eps, cert, gap, _ in results:
        assert cert <= eps / 2.0
        assert gap <= eps


def test_criterion_10_inexact_descent_majorant_never_violated():
    rng = np.random.default_rng(100)

    def ball_point(dim):
        v = rng.standard_normal(dim)
        return rng.random() ** (1.0 / dim) * v / np.linalg.norm(v)

    total_pairs = 0
    worst_excess = -math.inf
    violations = 0
    for nu in (0.0, 0.5, 1.0):
        problem = make_problem("holder_norm_power", dimension=5, p=1.0 + nu)
        l_nu = problem.objective.smoothness_meta["L_nu"]
        f = problem.objective.smooth_value
        df = problem.objective.smooth_grad
        for delta in (0.1, 0.01):
            big_m = holder_majorant_L(l_nu, nu, delta)
            for _ in range(1700):
                x = ball_point(5)
                y = ball_point(5)
                dx = x - y
                rhs = (f(y) + float(np.dot(df(y), dx))
                       + 0.5 * big_m * float(np.dot(dx, dx)) + delta)
                excess = f(x) - rhs
                worst_excess = max(worst_excess, excess)
                if excess > 1e-12:
                    violations += 1
                total_pairs += 1
    ok = violations == 0 and total_pairs >= 10_000
    _report(10, ok, f"quadratic majorant with additive slack: {violations} violations "
            f"beyond 1e-12 over {total_pairs} pairs, nu in {{0, 0.5, 1}} "
            f"(worst excess {worst_excess:.2e})")
    assert total_pairs >= 10_000
    assert violations == 0


def test_criterion_11_prox_solve_matches_brute_force_references():
    rng = np.random.default_rng(2024)
    zero = SimpleTerm(kind="zero")
    ind = SimpleTerm(kind="indicator")
    combos = [
        ("free space, zero h", [
            ("grid", euclidean_setup(center=rng.standard_normal(3)), zero, 3, 100),
            ("pg", euclidean_setup(center=rng.standard_normal(16)), zero, 16, 100)]),
        ("free space, l1", [
            ("grid", euclidean_setup(center=rng.standard_normal(3)),
             SimpleTerm(kind="l1", lam=0.7), 3, 100),
            ("pg", euclidean_setup(center=rng.standard_normal(14)),
             SimpleTerm(kind="l1", lam=0.7), 14, 100)]),
        ("box, zero h", [
            ("grid", euclidean_setup(center=np.zeros(3),
                                     feasible_set=box(-0.5 * np.ones(3),
                                                      0.75 * np.ones(3))),
             zero, 3, 100),
            ("pg", euclidean_setup(center=np.zeros(12),
                                   feasible_set=box(-np.ones(12), 2.0 * np.ones(12))),
             zero, 12, 100)]),
        ("box, l1", [
            ("grid", euclidean_setup(center=np.zeros(3),
                                     feasible_set=box(-0.5 * np.ones(3),
                                                      0.75 * np.ones(3))),
             SimpleTerm(kind="l1", lam=0.4), 3, 100),
            ("pg", euclidean_setup(center=np.zeros(10),
                                   feasible_set=box(-0.8 * np.ones(10),
                                                    1.2 * np.ones(10))),
             SimpleTerm(kind="l1", lam=0.5), 10, 100)]),
        ("euclidean simplex, indicator", [
            ("pg", euclidean_setup(center=np.full(8, 1.0 / 8.0),
                                   feasible_set=simplex()), ind, 8, 200)]),
        ("euclidean simplex, l1", [
            ("pg", euclidean_setup(center=np.full(8, 1.0 / 8.0),
                                   feasible_set=simplex()),
             SimpleTerm(kind="l1", lam=0.5), 8, 200)]),
        ("euclidean ball, zero h", [
            ("pg", euclidean_setup(center=np.zeros(12),
                                   feasible_set=euclidean_ball(0.3 * np.ones(12), 1.2)),
             zero, 12, 200)]),
        ("entropy simplex, indicator", [
            ("grid", entropy_setup(3), ind, 3, 200)]),
        ("entropy simplex, l1", [
            ("grid", entropy_setup(2), SimpleTerm(kind="l1", lam=0.5), 2, 200)]),
    ]

    def closed_form(setup, d_scales, linears, h_scales, h):
        outs = []
        for c_d, g_lin, c_h in zip(d_scales, linears, h_scales):
            phi = EstimateFunction(d_scale=float(c_d),
                                   linear=np.asarray(g_lin, dtype=float),
                                   h_scale=float(c_h), constant=0.0)
            outs.append(composite_prox_solve(setup, phi, h))
        return np.array(outs)

    diffs = []
    for label, parts in combos:
        combo_diff = 0.0
        for route, setup, h, n, count in parts:
            d_scales = rng.uniform(0.3, 3.0, count)
            linears = rng.standard_normal((count, n))
            h_scales = rng.uniform(0.0, 2.0, count)
            if route == "grid":
                brute = grid_refine_prox(setup, d_scales, linears, h_scales, h)
            else:
                brute = projected_gradient_prox(setup, d_scales, linears, h_scales, h)
            ref = closed_form(setup, d_scales, linears, h_scales, h)
            combo_diff = max(combo_diff, float(np.max(np.abs(brute - ref))))
        diffs.append((label, combo_diff))
    worst = max(d for _, d in diffs)
    ok = worst <= 1e-6
    _report(11, ok, f"closed-form prox vs brute references: max |diff| {worst:.2e} "
            f"over {len(combos)} geometry/h combinations, 200 instances each")
    for label, diff in diffs:
        assert diff <= 1e-6, f"{label}: brute-force mismatch {diff:.3e}"


def test_criterion_12_mode_degeneracy_chain():
    problem = make_problem("quadratic", dimension=10, seed=3)

    def run_mode(mode, eps, iters):
        extra = {}
        objective = problem.objective
        if mode == "sumst_stochastic_universal":
            objective = replace(problem.objective, noise_model=NoiseModel(kind="none"))
            extra["D"] = 0.0
        config = SolverConfig(mode=mode, epsilon=eps, max_iters=iters, **extra)
        return run(objective, problem.setup, config, rng=7)

    def max_divergence(reports):
        worst = 0.0
        for i in range(len(reports)):
            for j in range(i + 1, len(reports)):
                a, b = reports[i], reports[j]
                worst = max(worst, float(np.max(np.abs(a.final_x - b.final_x))))
                for col in ("A", "alpha", "L_trial", "j", "gap"):
                    worst = max(worst, float(np.max(np.abs(
                        a.trace.column(col) - b.trace.column(col)))))
        return worst

    # leg 1: with an enormous slack every mode accepts each trial outright,
    # so the three backtracking modes trace identical paths
    wide = [run_mode(m, 1e20, 8) for m in ("sumst_stochastic_universal",
                                           "umst_universal", "amst_adaptive")]
    diff_wide = max_divergence(wide)
    # leg 2: with a tiny slack the noiseless stochastic mode still reproduces
    # the universal mode step for step
    narrow = [run_mode(m, 1e-9, 40) for m in ("sumst_stochastic_universal",
                                              "umst_universal")]
    diff_narrow = max_divergence(narrow)
    ok = diff_wide <= 1e-12 and diff_narrow <= 1e-12
    _report(12, ok, "noiseless stochastic == universal == wide-slack adaptive, "
            f"iterate for iterate (max deviation: wide slack {diff_wide:.1e}, "
            f"tiny slack {diff_narrow:.1e})")
    assert diff_wide <= 1e-12
    assert diff_narrow <= 1e-12
