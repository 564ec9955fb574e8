"""Unit tests for the solver family: coefficient recursion, estimate folds,
descent checks, backtracking, the shared iteration skeleton, stopping rules,
and the per-iterate certificate."""

import dataclasses
import inspect
import math
import sys
import threading

import numpy as np
import pytest

from triangle_opt import (
    BacktrackLimitExceeded,
    CoefficientOverflow,
    CompositeObjective,
    ConfigError,
    DomainError,
    NoiseModel,
    SimpleTerm,
    SolverConfig,
    StoppingRule,
    TriangleOptError,
    UnsupportedGeometry,
    alpha_next,
    batch_size,
    composite_prox_solve,
    entropy_setup,
    estimate_value,
    euclidean_setup,
    fold_estimate,
    gradient_mapping_residual,
    init_phase,
    initial_estimate,
    make_problem,
    recenter,
    regularize,
    run,
    step,
    substream,
)
from triangle_opt import solvers


def quadratic_objective(dim=2, scale=1.0):
    return CompositeObjective(
        smooth_value=lambda x: 0.5 * scale * float(np.dot(x, x)),
        smooth_grad=lambda x: scale * np.asarray(x, dtype=float),
        known_optimum=(np.zeros(dim), 0.0),
        smoothness_meta={"L": scale, "mu": scale})


def test_alpha_next_worked_values():
    alpha, a_next = alpha_next(1.0, 1.0, 0.0)
    assert alpha == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, rel=1e-15)
    assert a_next == pytest.approx(alpha ** 2, rel=1e-12)

    alpha, a_next = alpha_next(2.0, 0.5, 0.0)
    assert alpha == pytest.approx(0.80901699437494745, rel=1e-12)
    assert 2.0 * alpha ** 2 == pytest.approx(a_next, rel=1e-12)

    alpha, a_next = alpha_next(1.0, 1.0, 1.0)
    assert alpha == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-12)
    assert a_next * 2.0 == pytest.approx(alpha ** 2, rel=1e-12)

    alpha, a_next = alpha_next(4.0, 0.0, 0.7)
    assert alpha == pytest.approx(0.25, rel=1e-15)
    assert a_next == pytest.approx(0.25, rel=1e-15)


def test_alpha_next_mu_continuity_at_zero():
    for L in (0.5, 1.0, 7.0):
        for A in (0.0, 1.0, 123.0):
            a0, n0 = alpha_next(L, A, 0.0)
            a1, n1 = alpha_next(L, A, 1e-18)
            assert a1 == pytest.approx(a0, rel=1e-12)
            assert n1 == pytest.approx(n0, rel=1e-12)


def test_alpha_next_overflow_guarded():
    with pytest.raises(CoefficientOverflow):
        alpha_next(1e-300, 1e300, 1.0)


def test_fold_estimate_constant_only_when_gradient_zero():
    setup = euclidean_setup(center=np.zeros(2))
    phi = initial_estimate(setup)
    folded = fold_estimate(phi, 1.5, np.zeros(2), np.zeros(2), 0.0, 0.0, setup)
    assert folded.d_scale == phi.d_scale
    np.testing.assert_array_equal(folded.linear, phi.linear)
    assert folded.h_scale == phi.h_scale + 1.5
    assert folded.constant == phi.constant
    h = SimpleTerm(kind="zero")
    same_min = composite_prox_solve(setup, folded, h)
    np.testing.assert_array_equal(same_min, composite_prox_solve(setup, phi, h))


def test_fold_estimate_prox_example():
    setup = euclidean_setup(center=np.zeros(2))
    phi0 = initial_estimate(setup)
    g = np.array([1.0, 0.0])
    folded = fold_estimate(phi0, 1.0, setup.center, g, 0.0, 0.0, setup)
    u = composite_prox_solve(setup, folded, SimpleTerm(kind="zero"))
    np.testing.assert_allclose(u, [-1.0, 0.0], atol=1e-15)


def test_two_folds_equal_one_summed_fold():
    rng = np.random.default_rng(5)
    setup = euclidean_setup(center=rng.standard_normal(3))
    phi0 = initial_estimate(setup)
    y = rng.standard_normal(3)
    g1, g2 = rng.standard_normal(3), rng.standard_normal(3)
    f_y = 0.7
    two = fold_estimate(fold_estimate(phi0, 0.5, y, g1, f_y, 0.0, setup),
                        0.5, y, g2, f_y, 0.0, setup)
    one = fold_estimate(phi0, 1.0, y, (g1 + g2) / 2.0, f_y, 0.0, setup)
    assert two.d_scale == one.d_scale
    np.testing.assert_allclose(two.linear, one.linear, atol=1e-14)
    assert two.h_scale == pytest.approx(one.h_scale)
    assert two.constant == pytest.approx(one.constant, rel=1e-12)


def test_fold_estimate_at_entropy_boundary_without_mu():
    setup = entropy_setup(3)
    y = np.array([0.5, 0.5, 0.0])
    with pytest.raises(DomainError):
        setup.d_grad(y)
    phi0 = initial_estimate(setup)
    g = np.array([1.0, -2.0, 0.5])
    folded = fold_estimate(phi0, 0.25, y, g, 0.7, 0.0, setup)
    assert folded.d_scale == phi0.d_scale
    np.testing.assert_array_equal(folded.linear, phi0.linear + 0.25 * g)
    assert folded.h_scale == phi0.h_scale + 0.25
    assert folded.constant == phi0.constant + 0.25 * (0.7 - float(np.dot(g, y)))


def test_descent_check_examples():
    # f = x^2/2 with no image, so the difference check, from y = y0 = 1: a trial
    # at L goes to x' = 1 - 1/L, and f(y) + <g, x' - y> + L/2 (x' - y)^2 >= f(x')
    # holds exactly when L >= 1, at L = 1 with equality; at k = 0 the slack is
    # eps, which covers the shortfall 1/(2L^2) - 1/(2L) = 1.06 at L = 0.49
    setup = euclidean_setup(center=np.ones(1))
    for L0, epsilon, j, L_trial in ((1.0, None, 0, 1.0), (0.49, None, 2, 1.96),
                                    (0.49, 1.1, 0, 0.49)):
        state = init_phase(quadratic_objective(dim=1), setup,
                           SolverConfig(mode="amst_adaptive", L0=L0, epsilon=epsilon))
        assert (state.j, state.L_trial) == (j, L_trial)
        assert state.f_x == 0.5 * (1.0 - 1.0 / L_trial) ** 2


def test_batch_size_examples():
    assert batch_size(4.0, 2.0, 1.0, 1.0, 0.5) == 32
    assert batch_size(0.0, 2.0, 1.0, 1.0, 0.5) == 1
    assert batch_size(1.0, 1.0, 1.0, 100.0, 1.0) == 1
    with pytest.raises(ConfigError):
        batch_size(None, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        batch_size(1.0, 1.0, 1.0, 1.0, None)


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(mode="nesterov")
    with pytest.raises(ConfigError):
        SolverConfig(mode="mst_exact_L")
    with pytest.raises(ConfigError):
        SolverConfig(mode="umst_universal")
    with pytest.raises(ConfigError):
        SolverConfig(mode="sumst_stochastic_universal", epsilon=0.1)
    with pytest.raises(ConfigError):
        SolverConfig(mode="amst_adaptive", L0=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(mode="amst_adaptive", mu=-0.1)
    with pytest.raises(ConfigError):
        SolverConfig(mode="amst_adaptive", max_iters=0)
    with pytest.raises(ConfigError):
        SolverConfig(mode="amst_adaptive",
                     stopping=StoppingRule(kind="certified_gap", r_sq=1.0))
    with pytest.raises(ConfigError):
        StoppingRule(kind="whenever")
    with pytest.raises(ConfigError):
        StoppingRule(kind="gradient_mapping")
    with pytest.raises(ConfigError):
        StoppingRule(kind="certified_gap")


@pytest.mark.parametrize("field, value, message", [
    ("mode", [], "unknown solver mode \\[\\]"),
    ("mode", {}, "unknown solver mode {}"),
    ("mode", 5, "unknown solver mode 5"),
    ("mode", None, "unknown solver mode None"),
    ("max_iters", 2.5, "max_iters must be an integer >= 1, got 2.5"),
    ("max_iters", True, "max_iters must be an integer >= 1, got True"),
    ("max_iters", math.inf, "max_iters must be an integer >= 1, got inf"),
    ("max_iters", "3", "max_iters must be an integer >= 1, got '3'"),
    ("max_iters", 0, "max_iters must be an integer >= 1, got 0"),
    ("max_backtracks_per_iter", 2.5, "max_backtracks_per_iter must be an integer >= 1"),
    ("max_backtracks_per_iter", False, "max_backtracks_per_iter must be an integer >= 1"),
    ("L0", "1", "L0 must be a number, got '1'"),
    ("L0", None, "L0 must be a number, got None"),
    ("L0", True, "L0 must be a number, got True"),
    ("mu", None, "mu must be a number, got None"),
    ("mu", "0", "mu must be a number, got '0'"),
    ("L_known", "2", "L_known must be a number, got '2'"),
    ("epsilon", [0.1], "epsilon must be a number"),
    ("D", True, "D must be a number, got True"),
    ("stopping", None, "stopping must be a StoppingRule, got None"),
])
def test_validate_checks_the_type_of_every_field(field, value, message):
    config = SolverConfig(mode="amst_adaptive", L_known=1.0, epsilon=0.1, D=1.0, max_iters=3)
    with pytest.raises(ConfigError, match=f"^{message}"):
        dataclasses.replace(config, **{field: value})


@pytest.mark.parametrize("threshold, r_sq", [("small", None), (None, math.nan), (True, None)])
def test_stopping_rule_checks_its_numbers(threshold, r_sq):
    with pytest.raises(ConfigError, match="must be (a number|finite)"):
        StoppingRule(kind="iterations_only", threshold=threshold, r_sq=r_sq)


def test_validate_takes_numpy_numbers():
    SolverConfig(mode="umst_universal", L0=np.float32(2.0), mu=np.float64(0.0),
                 epsilon=np.float64(0.1), max_iters=np.int64(5),
                 max_backtracks_per_iter=np.int32(3))


@pytest.mark.parametrize("field, value, message", [
    ("L_known", math.nan, "L_known must be finite"),
    ("L0", math.inf, "L0 must be finite"),
    ("mu", math.nan, "mu must be finite"),
    ("epsilon", math.nan, "epsilon must be finite"),
    ("D", math.nan, "D must be finite"),
    ("D", math.inf, "D must be finite"),
    ("D", -1.0, "D must be >= 0"),
])
def test_run_rejects_a_non_finite_or_negative_config_field(field, value, message):
    oracle = dataclasses.replace(quadratic_objective(), noise_model=NoiseModel(kind="gaussian"))
    config = SolverConfig(mode="sumst_stochastic_universal", L0=1.0, epsilon=0.1, D=1.0,
                          max_iters=3)
    with pytest.raises(ConfigError, match=f"^{message}"):
        config = dataclasses.replace(config, **{field: value})
        run(oracle, euclidean_setup(center=np.zeros(2)), config, rng=0)


def test_a_run_reads_omega_tilde_from_the_setup():
    # mu~ = mu / omega_tilde with omega_tilde from the setup; dividing by 4 is exact
    problem = make_problem("quadratic", dimension=10, seed=0, lam_min=0.05)

    def trace(setup, mu):
        config = SolverConfig(mode="mst_exact_L", L_known=1.0, mu=mu, max_iters=40)
        return run(problem.objective, setup, config).trace

    wide = trace(dataclasses.replace(problem.setup, omega_tilde=4.0), 0.02)
    same = trace(problem.setup, 0.005)
    plain = trace(problem.setup, 0.02)
    for name in ("A", "alpha", "gap", "dist_x_sq"):
        np.testing.assert_array_equal(wide.column(name), same.column(name))
    assert not np.array_equal(wide.column("A"), plain.column("A"))


def test_init_phase_exact_mode_lands_at_optimum():
    obj = quadratic_objective(dim=1)
    setup = euclidean_setup(center=np.array([1.0]))
    config = SolverConfig(mode="mst_exact_L", L_known=1.0)
    state = init_phase(obj, setup, config)
    assert state.A == 1.0 and state.alpha == 1.0
    np.testing.assert_allclose(state.x, [0.0], atol=1e-15)
    np.testing.assert_allclose(state.u, [0.0], atol=1e-15)


def test_init_phase_adaptive_accepts_first_trial_with_large_L0():
    obj = quadratic_objective(dim=3)
    setup = euclidean_setup(center=np.ones(3))
    config = SolverConfig(mode="amst_adaptive", L0=4.0)
    state = init_phase(obj, setup, config)
    assert state.j == 0
    assert state.L_trial == 4.0


def test_init_phase_sumst_noiseless_matches_umst():
    obj = quadratic_objective(dim=4)
    setup = euclidean_setup(center=np.full(4, 2.0))
    umst_cfg = SolverConfig(mode="umst_universal", epsilon=1e-3)
    sumst_cfg = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-3, D=0.0)
    oracle = dataclasses.replace(obj, noise_model=NoiseModel(kind="gaussian"))
    s_u = init_phase(obj, setup, umst_cfg, rng=3)
    s_s = init_phase(oracle, setup, sumst_cfg, rng=3)
    np.testing.assert_array_equal(s_u.x, s_s.x)
    assert s_s.m == 1


def test_init_phase_sumst_requires_oracle():
    obj = quadratic_objective()
    setup = euclidean_setup(center=np.zeros(2))
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=0.1, D=1.0)
    with pytest.raises(ConfigError, match="needs an objective with a noise_model"):
        init_phase(obj, setup, config)


def test_backtrack_limit_exceeded_when_budget_too_small():
    # starting 12 octaves below the true constant with a 3-doubling budget
    # cannot reach an acceptable trial at k=0
    obj = quadratic_objective(dim=2)
    setup = euclidean_setup(center=np.array([5.0, -3.0]))
    config = SolverConfig(mode="amst_adaptive", L0=2.0 ** -12, max_iters=10,
                          max_backtracks_per_iter=3)
    with pytest.raises(BacktrackLimitExceeded):
        run(obj, setup, config)


def test_mst_step_fixed_point_at_optimum():
    obj = quadratic_objective(dim=2)
    setup = euclidean_setup(center=np.zeros(2))
    config = SolverConfig(mode="mst_exact_L", L_known=1.0)
    state = init_phase(obj, setup, config)
    nxt = step(state, obj, setup, config)
    np.testing.assert_allclose(nxt.y, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(nxt.u, np.zeros(2), atol=1e-15)
    np.testing.assert_allclose(nxt.x, np.zeros(2), atol=1e-15)


def test_mst_matches_straight_line_transliteration():
    # independent reading of the update rules for the free euclidean case
    obj = quadratic_objective(dim=1)
    setup = euclidean_setup(center=np.array([1.0]))
    L = 2.0  # conservative constant keeps the path nontrivial
    config = SolverConfig(mode="mst_exact_L", L_known=L)

    # reference: u = y0 - sum(alpha_i * g_i), y and x as stated combinations
    y0 = np.array([1.0])
    alpha_ref = a_ref = 1.0 / L
    lin = alpha_ref * y0.copy()  # gradient of f=x^2/2 at y0
    u_ref = y0 - lin
    x_ref = u_ref.copy()
    state = init_phase(obj, setup, config)
    np.testing.assert_allclose(state.x, x_ref, atol=1e-14)
    for _ in range(2):
        alpha_new = (1.0 + math.sqrt(1.0 + 4.0 * L * a_ref)) / (2.0 * L)
        a_new = a_ref + alpha_new
        y_ref = (alpha_new * u_ref + a_ref * x_ref) / a_new
        lin = lin + alpha_new * y_ref  # accumulate alpha * grad f(y)
        u_ref = y0 - lin
        x_ref = (alpha_new * u_ref + a_ref * x_ref) / a_new
        nxt = step(state, obj, setup, config)
        np.testing.assert_allclose(nxt.y, y_ref, atol=1e-12)
        np.testing.assert_allclose(nxt.u, u_ref, atol=1e-12)
        np.testing.assert_allclose(nxt.x, x_ref, atol=1e-12)
        assert obj.composite_value(nxt.x) < obj.composite_value(state.x)
        state = nxt
        alpha_ref, a_ref = alpha_new, a_new


def test_triangle_identity_along_run():
    problem = make_problem("quadratic", dimension=8, seed=2)
    setup = problem.setup
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=40)
    state = init_phase(problem.objective, setup, config)
    for _ in range(25):
        u_prev = state.u.copy()
        state = step(state, problem.objective, setup, config)
        lhs = state.A * (state.x - state.y)
        rhs = state.alpha * (state.u - u_prev)
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-10


def test_estimate_function_structure_invariants():
    # d_scale = 1 + mu_tilde * A and h_scale = A at every accepted iterate
    problem = make_problem("quadratic", dimension=6, seed=4, lam_min=0.3)
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, mu=0.3, max_iters=30)
    state = init_phase(problem.objective, problem.setup, config)
    mu_tilde = state.mu_tilde
    for _ in range(20):
        assert state.phi.d_scale == pytest.approx(1.0 + mu_tilde * state.A, rel=1e-12)
        assert state.phi.h_scale == pytest.approx(state.A, rel=1e-12)
        state = step(state, problem.objective, problem.setup, config)


def test_run_theorem_rate_on_sphere():
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal(50)
    y0 /= np.linalg.norm(y0)
    obj = quadratic_objective(dim=50)
    setup = euclidean_setup(center=y0)
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=100)
    report = run(obj, setup, config)
    r_sq = 0.5  # V(x*, y0) = ||y0||^2 / 2
    gaps = report.trace.column("gap")
    ks = report.trace.column("k")
    assert report.iterations == 99
    for k, gap in zip(ks, gaps):
        assert gap <= 4.0 * r_sq / (k + 1) ** 2 + 1e-10


def test_run_strongly_convex_exponential_rate():
    problem = make_problem("quadratic", dimension=10, seed=3, lam_min=0.04)
    x_star = problem.objective.known_optimum[0]
    r_sq = 0.5 * float(np.dot(x_star, x_star))
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, mu=0.04, max_iters=400)
    report = run(problem.objective, problem.setup, config)
    rate = 0.5 * math.sqrt(0.04)
    for k, gap in zip(report.trace.column("k"), report.trace.column("gap")):
        assert gap <= 1.0 * r_sq * math.exp(-rate * k) + 1e-10


def test_certificate_margin_nonnegative_all_modes():
    problem = make_problem("quadratic", dimension=6, seed=1)
    obj = problem.objective
    setup = problem.setup
    oracle = dataclasses.replace(obj, noise_model=NoiseModel(kind="gaussian"))
    runs = [
        (obj, SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=50)),
        (obj, SolverConfig(mode="amst_adaptive", L0=0.1, max_iters=50)),
        (obj, SolverConfig(mode="umst_universal", epsilon=1e-4, max_iters=50)),
        (oracle, SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-3,
                              D=0.5, max_iters=25)),
    ]
    for objective, config in runs:
        report = run(objective, setup, config, rng=7)
        margins = report.trace.column("cert_margin")
        scale = np.maximum(1.0, np.abs(report.trace.column("A")))
        assert np.all(margins >= -1e-8 * scale)


def test_mu_continuity_of_iterates():
    problem = make_problem("quadratic", dimension=5, seed=6)
    base = SolverConfig(mode="mst_exact_L", L_known=1.0, mu=0.0, max_iters=101)
    tiny = SolverConfig(mode="mst_exact_L", L_known=1.0, mu=1e-12, max_iters=101)
    x0 = run(problem.objective, problem.setup, base).final_x
    x1 = run(problem.objective, problem.setup, tiny).final_x
    assert float(np.max(np.abs(x0 - x1))) <= 1e-6


def test_gradient_mapping_residual_examples():
    obj = quadratic_objective(dim=1)
    setup = euclidean_setup(center=np.zeros(1))
    assert gradient_mapping_residual(obj, setup, np.array([1.0]), 1.0) == pytest.approx(1.0)
    assert gradient_mapping_residual(obj, setup, np.zeros(1), 1.0) == 0.0
    # unconstrained h=0: residual = ||grad f(x)|| / L
    x = np.array([3.0])
    assert gradient_mapping_residual(obj, setup, x, 2.0) == pytest.approx(1.5)

    lasso = make_problem("lasso")
    x_star = lasso.objective.known_optimum[0]
    L = lasso.objective.smoothness_meta["L"]
    assert gradient_mapping_residual(lasso.objective, lasso.setup, x_star, L) <= 1e-8

    with pytest.raises(UnsupportedGeometry):
        gradient_mapping_residual(obj, entropy_setup(2), np.full(2, 0.5), 1.0)
    with pytest.raises(ConfigError):
        gradient_mapping_residual(obj, setup, np.zeros(1), 0.0)


def test_gradient_mapping_stopping_rule():
    problem = make_problem("quadratic", dimension=8, seed=5, lam_min=0.2)
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, mu=0.2, max_iters=5000,
                          stopping=StoppingRule(kind="gradient_mapping", threshold=1e-9))
    report = run(problem.objective, problem.setup, config)
    assert report.iterations < 4999
    residual = gradient_mapping_residual(problem.objective, problem.setup,
                                         report.final_x, 1.0)
    assert residual <= 1e-9


def test_certified_gap_stopping_and_bound():
    problem = make_problem("quadratic", dimension=10, seed=8)
    x_star = problem.objective.known_optimum[0]
    r_sq = 0.5 * float(np.dot(x_star, x_star))
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, epsilon=1e-4, max_iters=10000,
                          stopping=StoppingRule(kind="certified_gap", r_sq=r_sq))
    report = run(problem.objective, problem.setup, config)
    assert report.certified_gap is not None
    assert report.certified_gap <= 1e-4
    assert report.iterations < 9999
    true_gap = float(report.trace.column("gap")[-1])
    assert true_gap <= report.certified_gap + 1e-15


def test_coefficient_overflow_guard_fires_after_convergence():
    # once converged, the universal mode halves L every iteration so A doubles;
    # the 1e300 guard must abort rather than produce inf
    obj = quadratic_objective(dim=1)
    setup = euclidean_setup(center=np.zeros(1))
    config = SolverConfig(mode="umst_universal", epsilon=1e-2, max_iters=1300)
    with pytest.raises(CoefficientOverflow):
        run(obj, setup, config)


def test_stochastic_count_past_int64_raises_with_an_int64_trace():
    # noiseless sumst on the Holder kind reaches gap 0, then L_trial halves
    # every iteration and the batch size doubles, past 2**63 - 1 draws at k = 57
    problem = make_problem("holder_norm_power")
    oracle = dataclasses.replace(problem.objective, noise_model=NoiseModel(kind="none"))
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=0.1,
                          max_iters=300)
    with pytest.raises(CoefficientOverflow, match="2\\*\\*63") as caught:
        run(oracle, problem.setup, config, rng=0)
    trace = caught.value.report.trace
    assert 0 < len(trace) < 300
    for name in ("m", "cum_stoch"):
        assert trace.column(name).dtype == np.int64, name
    assert caught.value.report.total_stoch_calls == int(trace.last("cum_stoch"))


def test_max_iters_counts_rows_including_k0():
    problem = make_problem("quadratic", dimension=4, seed=9)
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=10)
    report = run(problem.objective, problem.setup, config)
    assert len(report.trace) == 10
    assert report.iterations == 9
    assert list(report.trace.column("k")) == list(range(10))


def test_counter_totals_match_trace_cumulatives():
    problem = make_problem("quadratic", dimension=5, seed=10)
    config = SolverConfig(mode="amst_adaptive", L0=0.5, max_iters=30)
    report = run(problem.objective, problem.setup, config)
    assert report.total_f_calls == int(report.trace.column("cum_f")[-1])
    assert report.total_grad_calls == int(report.trace.column("cum_grad")[-1])
    assert report.total_stoch_calls == int(report.trace.column("cum_stoch")[-1])
    for name in ("cum_f", "cum_grad", "cum_stoch"):
        col = report.trace.column(name)
        assert np.all(np.diff(col) >= 0)


def test_adaptive_backtracking_stays_near_true_L():
    # curvature pinned to [0.9, 1] so the accepted trial constant cannot
    # drift far from L = 1
    problem = make_problem("quadratic", dimension=12, seed=11, lam_min=0.9)
    config = SolverConfig(mode="amst_adaptive", L0=1.0, max_iters=200)
    report = run(problem.objective, problem.setup, config)
    l_trials = report.trace.column("L_trial")
    js = report.trace.column("j")
    assert np.all(l_trials >= 0.25 - 1e-12)
    assert np.all(l_trials <= 2.0 + 1e-12)
    assert np.all(js[1:] <= 1)


def test_sumst_determinism_and_seed_sensitivity():
    problem = make_problem("quadratic", dimension=6, seed=12)
    oracle = dataclasses.replace(problem.objective, noise_model=NoiseModel(kind="gaussian"))
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0,
                          max_iters=15)
    rep_a = run(oracle, problem.setup, config, rng=21)
    rep_b = run(oracle, problem.setup, config, rng=21)
    rep_c = run(oracle, problem.setup, config, rng=22)
    np.testing.assert_array_equal(rep_a.final_x, rep_b.final_x)
    np.testing.assert_array_equal(rep_a.trace.column("A"), rep_b.trace.column("A"))
    assert (not np.array_equal(rep_a.trace.column("m"), rep_c.trace.column("m"))
            or not np.array_equal(rep_a.final_x, rep_c.final_x))


def _noisy_quadratic(kind):
    problem = make_problem("quadratic", dimension=5, seed=3)
    obj = problem.objective
    if kind == "gaussian":
        noise = NoiseModel(kind="gaussian")
    else:  # components grad f + v_i with the v_i summing to zero
        shifts = np.random.default_rng(1).standard_normal((4, 5))
        shifts -= shifts.mean(axis=0)
        noise = NoiseModel(kind="finite_sum",
                           components=tuple((lambda x, v=v: obj.smooth_grad(x) + v)
                                            for v in shifts))
    return problem, dataclasses.replace(obj, noise_model=noise)


@pytest.mark.parametrize("kind", ["gaussian", "finite_sum"])
def test_each_sumst_trial_draws_the_substream_of_its_k_and_j(monkeypatch, kind):
    problem, oracle = _noisy_quadratic(kind)
    drawn = []
    real = solvers.minibatch_gradient

    def recording(oracle, x, m, rng, counter=None, exact_grad=None, D=None):
        out = real(oracle, x, m, rng, counter, exact_grad, D)
        drawn.append((x.copy(), m, exact_grad, out))
        return out

    monkeypatch.setattr(solvers, "minibatch_gradient", recording)
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0, max_iters=20)
    trace = run(oracle, problem.setup, config, rng=4).trace
    trials = [(k, j) for k, last in zip(trace.column("k").astype(int),
                                        trace.column("j").astype(int))
              for j in range(last + 1)]
    assert len(trials) == len(drawn) and max(j for _, j in trials) >= 1
    for (k, j), (x, m, exact_grad, out) in zip(trials, drawn):
        again = real(oracle, x, m, substream(4, k, j), None, exact_grad, D=1.0)
        assert again.tobytes() == out.tobytes(), (k, j)


def test_sumst_runs_on_threads_match_the_same_runs_one_after_another():
    problem, oracle = _noisy_quadratic("gaussian")
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0,
                          max_iters=200)
    seeds = (1, 2, 3, 4)  # more threads than the two cores of a small runner
    alone = [run(oracle, problem.setup, config, rng=seed) for seed in seeds]
    together = [None] * len(seeds)
    barrier = threading.Barrier(len(seeds))

    def one(i):
        barrier.wait()
        together[i] = run(oracle, problem.setup, config, rng=seeds[i])

    threads = [threading.Thread(target=one, args=(i,)) for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(alone, together):
        assert a.final_x.tobytes() == b.final_x.tobytes()
        assert a.trace.data.keys() == b.trace.data.keys()
        for name in a.trace.data:
            assert a.trace.column(name).tobytes() == b.trace.column(name).tobytes(), name


@pytest.mark.parametrize("rng", [-1, 2.5, "3", True])
def test_init_phase_sumst_rejects_a_bad_seed_before_any_draw(monkeypatch, rng):
    problem, oracle = _noisy_quadratic("gaussian")
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before the seed was checked")

    monkeypatch.setattr(solvers, "minibatch_gradient", no_draw)
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        init_phase(oracle, problem.setup, config, rng=rng)


def test_init_phase_sumst_takes_the_default_and_numpy_integer_seeds():
    problem, oracle = _noisy_quadratic("gaussian")
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0)
    for rng, same_as in ((None, 0), (np.int64(3), 3)):
        got = init_phase(oracle, problem.setup, config, rng=rng)
        expected = init_phase(oracle, problem.setup, config, rng=same_as)
        assert got.x.tobytes() == expected.x.tobytes()


def test_step_draws_from_the_seed_that_init_phase_keyed():
    problem, oracle = _noisy_quadratic("gaussian")
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0, max_iters=6)
    report = run(oracle, problem.setup, config, rng=5)
    state = init_phase(oracle, problem.setup, config, rng=5)
    for _ in range(5):
        state = step(state, oracle, problem.setup, config)
    assert state.x.tobytes() == report.final_x.tobytes()
    assert "rng" not in inspect.signature(step).parameters


def test_deterministic_modes_record_unit_batch():
    problem = make_problem("quadratic", dimension=4, seed=13)
    for config in (SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=10),
                   SolverConfig(mode="amst_adaptive", max_iters=10)):
        report = run(problem.objective, problem.setup, config)
        assert np.all(report.trace.column("m") == 1)


def test_observer_reuses_the_methods_f_values():
    problem = make_problem("quadratic", dimension=8, seed=6)
    base = problem.objective
    calls = [0]

    def counted_value(x):
        calls[0] += 1
        return base.smooth_value(x)

    obj = dataclasses.replace(base, smooth_value=counted_value, linear=None)
    oracle = dataclasses.replace(obj, noise_model=NoiseModel(kind="gaussian"))
    runs = [
        (obj, SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=20), True),
        (obj, SolverConfig(mode="amst_adaptive", L0=0.1, max_iters=20), False),
        (obj, SolverConfig(mode="umst_universal", epsilon=1e-3, max_iters=20), False),
        (oracle, SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=0.1,
                              max_iters=10), False),
    ]
    for objective, config, observer_evaluates_x in runs:
        calls[0] = 0
        report = run(objective, problem.setup, config, rng=1)
        # only the exact-L mode's F(x), which the method never computes, is
        # evaluated by the observer: one uncounted call per row
        extra = len(report.trace) if observer_evaluates_x else 0
        assert calls[0] == report.total_f_calls + extra, config.mode


# --- cached affine images ---------------------------------------------------

def _canonical_amst(kind, dimension, iters):
    problem = make_problem(kind, dimension=dimension)
    return problem, run(problem.objective, problem.setup,
                        SolverConfig(mode="amst_adaptive", max_iters=iters))


@pytest.mark.parametrize("kind,dimension", [("lasso", 12), ("logistic", 8), ("quadratic", 50)])
def test_amst_trial_constant_stays_within_twice_L_on_imaged_zoo(kind, dimension):
    problem, report = _canonical_amst(kind, dimension, 3000)
    L = problem.objective.smoothness_meta["L"]
    l_trials = report.trace.column("L_trial")
    assert len(l_trials) == 3000
    # row 0 accepts L0 = 1 as given, which is 2.4 L on the logistic instance;
    # every doubling after it stops within a factor two of L
    assert l_trials[0] <= max(2.0 * L, 1.0)
    assert np.all(l_trials[1:] <= 2.0 * L)


def _imaged_configs(kind, L, iters):
    configs = [SolverConfig(mode="mst_exact_L", L_known=L, max_iters=iters)]
    if kind != "lasso":
        # on the lasso the adaptive modes accept L_trial < L, where the iteration
        # amplifies rounding-level differences between any two evaluations of f
        # (u drifts 5e-3 apart by k = 265 with the same L sequence), and the
        # uncached slack-0 check drives L_trial to 2e6 L; see demos/cache_drift.py
        configs += [SolverConfig(mode="amst_adaptive", max_iters=iters),
                    SolverConfig(mode="amst_adaptive", epsilon=1e-3, max_iters=iters),
                    SolverConfig(mode="umst_universal", epsilon=1e-3, max_iters=iters)]
    return configs


@pytest.mark.parametrize("kind", ["quadratic", "lasso", "logistic"])
def test_cached_runs_match_the_uncached_path(kind):
    problem = make_problem(kind)
    cached_obj = problem.objective
    plain_obj = dataclasses.replace(cached_obj, linear=None)
    f_star = cached_obj.known_optimum[1]
    for config in _imaged_configs(kind, cached_obj.smoothness_meta["L"], 600):
        cached = run(cached_obj, problem.setup, config)
        plain = run(plain_obj, problem.setup, config)
        gap_c, gap_p = cached.trace.last("gap"), plain.trace.last("gap")
        assert abs(gap_c - gap_p) <= 1e-10 * max(1.0, abs(f_star)), config.mode
        margins = cached.trace.column("cert_margin")
        assert np.all(margins >= -1e-8 * np.maximum(1.0, np.abs(cached.trace.column("A"))))


def _counting_image(objective, tally):
    image = objective.linear

    def forward(x):
        tally["forward"] += 1
        return image.forward(x)

    def adjoint(w):
        tally["adjoint"] += 1
        return image.adjoint(w)

    def hessian(v):
        tally["hessian"] += 1
        return image.quadratic.hessian(v)

    def raw(name):
        def call(x):
            tally[name] += 1
            return getattr(objective, name)(x)
        return call

    form = image.quadratic
    if form is not None:
        form = dataclasses.replace(form, hessian=hessian)
    return dataclasses.replace(
        objective, linear=dataclasses.replace(image, forward=forward, adjoint=adjoint,
                                              quadratic=form),
        smooth_value=raw("smooth_value"), smooth_grad=raw("smooth_grad"))


@pytest.mark.parametrize("kind", ["quadratic", "lasso", "logistic"])
def test_cached_path_makes_two_products_per_trial_and_no_raw_oracle_call(kind):
    problem = make_problem(kind, seed=3)
    L = problem.objective.smoothness_meta["L"]
    for config in (SolverConfig(mode="mst_exact_L", L_known=L, max_iters=30),
                   SolverConfig(mode="amst_adaptive", L0=L / 64, max_iters=30),
                   SolverConfig(mode="umst_universal", epsilon=1e-3, max_iters=30),
                   SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=0.1,
                                max_iters=15)):
        tally = dict.fromkeys(("forward", "adjoint", "hessian", "smooth_value", "smooth_grad"),
                              0)
        objective = _counting_image(problem.objective, tally)
        if config.mode == "sumst_stochastic_universal":
            objective = dataclasses.replace(objective, noise_model=NoiseModel(kind="gaussian"))
        report = run(objective, problem.setup, config, rng=2)
        trials = report.trace.column("j").astype(int) + 1
        if kind == "logistic":
            # one forward product at the center, then one per trial (z(u_next));
            # one adjoint at the center, then one per trial after k = 0, which
            # reuses the gradient at the center
            assert tally["forward"] == 1 + int(trials.sum()), config.mode
            assert tally["adjoint"] == 1 + int(trials[1:].sum()), config.mode
        else:
            # a quadratic form: one Hessian product at the center, then one
            # per trial (grad f(u_next)), and no product with the image
            assert tally["hessian"] == 1 + int(trials.sum()), config.mode
            assert tally["forward"] == tally["adjoint"] == 0, config.mode
        assert tally["smooth_value"] == tally["smooth_grad"] == 0, config.mode
        # f(y0), then per trial f(y) (after k = 0) and the Bregman term that
        # stands for f(x); the exact-L mode makes one f(y) per row
        if config.mode == "mst_exact_L":
            assert report.total_f_calls == len(trials)
        else:
            assert report.total_f_calls == 1 + int(trials.sum() + trials[1:].sum()), config.mode


def test_zero_step_passes_only_at_the_last_accepted_constant():
    # both Bregman forms: 1/2 r^2 <du, d grad f> under the QuadraticForm, and
    # psi_bregman on the same image without it
    problem = make_problem("quadratic", dimension=6, seed=4)
    image = problem.objective.linear
    assert image.quadratic is not None and image.psi_bregman is not None
    x_star = problem.objective.known_optimum[0]
    for form in (image.quadratic, None):
        objective = dataclasses.replace(
            problem.objective, linear=dataclasses.replace(image, quadratic=form))
        # started at x*, u does not move: 0 <= 0 holds at any L, so the last
        # accepted constant decides; the first trial, at half of it, fails
        setup = recenter(problem.setup, x_star)
        config = SolverConfig(mode="amst_adaptive", L0=0.5)
        state = init_phase(objective, setup, config)
        assert (state.j, state.L_trial) == (0, 0.5) and np.array_equal(state.u, x_star)
        nxt = step(state, objective, setup, config)
        assert np.array_equal(nxt.u, x_star)
        assert (nxt.j, nxt.L_trial) == (1, 0.5), form
        # a step that moves is graded by the Bregman term alone: with L = 1 it
        # passes at half of L0 = 64 at once
        config = SolverConfig(mode="amst_adaptive", L0=64.0)
        state = init_phase(objective, problem.setup, config)
        nxt = step(state, objective, problem.setup, config)
        assert (nxt.j, nxt.L_trial) == (0, 32.0), form


def test_run_started_at_the_optimum_keeps_its_trial_constant():
    # y0 = x*: the gradient vanishes, u never moves and every step is a zero
    # step; without the rule L_trial would halve each iteration until A_k
    # overflowed near k = 1000
    problem = make_problem("quadratic", dimension=5, seed=7)
    setup = recenter(problem.setup, problem.objective.known_optimum[0])
    report = run(problem.objective, setup,
                 SolverConfig(mode="amst_adaptive", L0=0.5, max_iters=1500))
    assert len(report.trace) == 1500
    assert np.all(report.trace.column("L_trial") == 0.5)
    assert np.all(report.trace.column("j")[1:] == 1)


@pytest.mark.parametrize("kind", ["quadratic", "lasso", "logistic"])
def test_noiseless_sumst_equals_umst_bit_for_bit_on_the_cached_path(kind):
    problem = make_problem(kind, seed=1)
    assert problem.objective.linear is not None
    umst = run(problem.objective, problem.setup,
               SolverConfig(mode="umst_universal", epsilon=1e-6, max_iters=200), rng=5)
    for noise in (NoiseModel(kind="none"), NoiseModel(kind="gaussian")):
        oracle = dataclasses.replace(problem.objective, noise_model=noise)
        sumst = run(oracle, problem.setup,
                    SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-6 / 3.0,
                                 D=0.0, max_iters=200), rng=5)
        assert sumst.final_x.tobytes() == umst.final_x.tobytes()
        for name in ("A", "alpha", "L_trial", "j", "cum_f", "gap", "cert_margin"):
            assert (sumst.trace.column(name).tobytes()
                    == umst.trace.column(name).tobytes()), (noise.kind, name)


@pytest.mark.parametrize("kind,mode", [("quadratic", "mst_exact_L"),
                                       ("lasso", "amst_adaptive"),
                                       ("logistic", "amst_adaptive"),
                                       ("lasso", "umst_universal")])
def test_cached_image_drift_stays_at_rounding_level(kind, mode):
    problem = make_problem(kind)
    objective, setup = problem.objective, problem.setup
    L = objective.smoothness_meta["L"]
    config = SolverConfig(mode=mode, L_known=L, epsilon=1e-3, max_iters=3000)
    state = init_phase(objective, setup, config)
    worst = 0.0
    for k in range(1, 3000):
        state = step(state, objective, setup, config)
        if k % 100 == 0:
            # the cached part of x is z(x), or grad f(x) under a quadratic form
            form = objective.linear.quadratic
            exact = (objective.linear.forward(state.x) if form is None
                     else form.hessian(state.x - form.center))
            cached = state.xz[state.x.size:]
            worst = max(worst, float(np.max(np.abs(cached - exact)))
                        / max(1.0, float(np.max(np.abs(exact)))))
    # measured over 10^4 iterations: at most 9.2e-15 for z(x) on the
    # logistic, 9e-13 for grad f(x) on the lasso and 2.2e-15 on the quadratic
    assert worst <= 1e-12


@pytest.mark.parametrize("kind", ["quadratic", "lasso", "logistic"])
def test_uncached_path_evaluates_f_and_grad_at_y0_once_across_the_k0_trials(kind):
    problem = make_problem(kind, seed=3)
    objective = dataclasses.replace(problem.objective, linear=None)
    L = objective.smoothness_meta["L"]
    for config in (SolverConfig(mode="amst_adaptive", L0=L / 64, max_iters=30),
                   SolverConfig(mode="umst_universal", L0=L / 64, epsilon=1e-3, max_iters=30),
                   SolverConfig(mode="sumst_stochastic_universal", L0=L / 64, epsilon=1e-2,
                                D=0.1, max_iters=15)):
        stochastic = config.mode == "sumst_stochastic_universal"
        solved = objective
        if stochastic:
            solved = dataclasses.replace(objective, noise_model=NoiseModel(kind="gaussian"))
        trace = run(solved, problem.setup, config, rng=2).trace
        trials = trace.column("j").astype(int) + 1
        assert trials[0] > 1, config.mode
        # row 0: f(y0), then f(x0) per trial; the gradient at y0 once (in
        # sumst the mini-batch draws are counted apart)
        assert trace.column("cum_f")[0] == 1 + trials[0], config.mode
        assert trace.column("cum_grad")[0] == (0 if stochastic else 1), config.mode
        # later rows: f(y) and f(x) per trial, and one gradient per trial
        after_k0 = np.cumsum(trials) - trials[0]
        np.testing.assert_array_equal(trace.column("cum_f"), 1 + np.cumsum(trials) + after_k0)
        np.testing.assert_array_equal(trace.column("cum_grad"),
                                      np.zeros_like(trials) if stochastic else 1 + after_k0)


def _without_image(name):
    if name == "regularized_quadratic":
        quad = make_problem("quadratic", dimension=6, seed=2)
        regularized, _ = regularize(quad.objective, quad.setup, epsilon=0.1, R_sq=2.0)
        return regularized, quad.setup
    problem = make_problem(name)
    return problem.objective, problem.setup


def test_finite_sum_sumst_on_the_identity_image_never_forms_the_exact_gradient():
    # the finite_sum draw and the difference check read only the components
    # and f, so the exact gradient at y is never formed
    problem = make_problem("holder_norm_power", dimension=5)
    base = problem.objective
    calls = []

    def counted_grad(x):
        calls.append(1)
        return base.smooth_grad(x)

    shift = np.linspace(-1.0, 1.0, 5)
    noise = NoiseModel(kind="finite_sum",
                       components=(lambda x: base.smooth_grad(x) + shift,
                                   lambda x: base.smooth_grad(x) - shift))
    oracle = dataclasses.replace(base, smooth_grad=counted_grad, noise_model=noise)
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=1.0, max_iters=30)
    report = run(oracle, problem.setup, config, rng=0)
    assert len(report.trace) == 30 and report.total_stoch_calls > 0
    assert calls == []


@pytest.mark.parametrize("name", ["holder_norm_power", "simplex_linear", "regularized_quadratic"])
def test_identity_image_evaluates_f_and_grad_once_per_counted_call(name):
    # objectives without a LinearImage run on the identity image: every raw
    # oracle call is a counted one, except the exact-L mode's F(x), which
    # the observer evaluates once per row
    base, setup = _without_image(name)
    assert base.linear is None
    tally = {"smooth_value": 0, "smooth_grad": 0}

    def raw(oracle):
        def call(x):
            tally[oracle] += 1
            return getattr(base, oracle)(x)
        return call

    objective = dataclasses.replace(base, smooth_value=raw("smooth_value"),
                                    smooth_grad=raw("smooth_grad"))
    for config in (SolverConfig(mode="mst_exact_L", L_known=2.0, max_iters=40),
                   SolverConfig(mode="amst_adaptive", L0=1.0 / 64, max_iters=40),
                   SolverConfig(mode="umst_universal", epsilon=1e-3, max_iters=40)):
        tally.update(smooth_value=0, smooth_grad=0)
        report = run(objective, setup, config)
        extra = len(report.trace) if config.mode == "mst_exact_L" else 0
        assert tally["smooth_grad"] == report.total_grad_calls, config.mode
        assert tally["smooth_value"] == report.total_f_calls + extra, config.mode



# --- the observer's block evidence ---------------------------------------------

def _row_by_row(state, objective, setup, config):
    """One trace row as the observer computed it, one row at a time, with the
    point formulas of prox_geometry written out: the reference for the block
    computation, which must give every cell the same bits."""
    h, counters, phi = objective.h, state.counters, state.phi

    def h_value(x):
        return h.lam * float(np.abs(x).sum()) if h.kind == "l1" else 0.0

    def d_value(x):
        if setup.geometry == "euclidean":
            diff = x - setup.center
            return 0.5 * float(diff.dot(diff))
        xlogx = np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)
        return float(xlogx.sum() + np.log(x.size))

    def norm(v):
        if setup.geometry == "euclidean":
            return float(np.linalg.norm(v))
        return float(np.abs(v).sum())

    row = {"k": state.k, "A": state.A, "alpha": state.alpha, "L_trial": state.L_trial,
           "j": state.j, "m": state.m, "cum_f": counters.f_calls,
           "cum_grad": counters.grad_calls, "cum_stoch": counters.stochastic_grad_calls}
    f = state.f_x
    if f is None:
        f = solvers._cached_value(state.image, state.xz, state.x.size)
    f_x = f + h_value(state.x)
    phi_at_u = float(phi.d_scale * d_value(state.u) + phi.linear.dot(state.u)
                     + phi.h_scale * h_value(state.u) + phi.constant)
    slack_abs = state.A * config.slack_factor * (config.epsilon or 0.0)
    row["cert_margin"] = phi_at_u + slack_abs - state.A * f_x
    row["gap"] = row["gap_y"] = math.nan
    row["dist_u_sq"] = row["dist_x_sq"] = row["dist_y_sq"] = math.nan
    if objective.known_optimum is not None:
        x_star, f_star = objective.known_optimum
        row["gap"] = f_x - f_star
        row["gap_y"] = state.f_y + h_value(state.y) - f_star
        if x_star is not None:
            for name, point in (("u", state.u), ("x", state.x), ("y", state.y)):
                row[f"dist_{name}_sq"] = norm(point - x_star) ** 2
    return row


def _replayed_rows(objective, setup, config, rng=None):
    """run(), replayed with init_phase and step and recorded row by row: the
    rows, and the error that ended the run (None when it finished)."""
    state = init_phase(objective, setup, config, rng)
    rows = [_row_by_row(state, objective, setup, config)]
    while len(rows) < config.max_iters:
        try:
            nxt = step(state, objective, setup, config)
        except TriangleOptError as exc:
            return rows, exc
        if not math.isfinite(nxt.A) or nxt.A > solvers.A_OVERFLOW_LIMIT:
            return rows, CoefficientOverflow("A_k past the 1e300 guard")
        rows.append(_row_by_row(nxt, objective, setup, config))
        state = nxt
    return rows, None


def _assert_block_evidence_matches(objective, setup, config, rng=None, error=None, min_blocks=1):
    expected, raised = _replayed_rows(objective, setup, config, rng)
    assert raised is None if error is None else isinstance(raised, error)
    if error is None:
        trace = run(objective, setup, config, rng).trace
    else:
        with pytest.raises(error) as caught:
            run(objective, setup, config, rng)
        trace = caught.value.report.trace  # the partial report keeps every recorded row
    n = setup.center.size
    block = min(solvers._BLOCK_ROWS, solvers._BLOCK_CELLS // max(n, 1))
    assert len(trace) == len(expected) > min_blocks * block
    assert set(trace.data) == set(expected[0])
    for name, col in trace.data.items():
        want = np.array([row[name] for row in expected], dtype=col.dtype)
        assert col.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("kind,dimension,config", [
    # several blocks: 256 rows each at these sizes, 54 at d = 300
    ("lasso", 12, SolverConfig(mode="amst_adaptive", max_iters=1100)),
    ("quadratic", 300, SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=240)),
    ("quadratic", 20, SolverConfig(mode="mst_exact_L", L_known=1.0, mu=0.02, max_iters=600)),
    ("holder_norm_power", 5, SolverConfig(mode="umst_universal", epsilon=1e-3, max_iters=900)),
    ("simplex_linear", 6, SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=600)),
    ("logistic", 8, SolverConfig(mode="amst_adaptive", epsilon=1e-3, max_iters=600)),
])
def test_block_evidence_equals_the_row_by_row_formulas(kind, dimension, config):
    problem = make_problem(kind, dimension=dimension)
    _assert_block_evidence_matches(problem.objective, problem.setup, config, min_blocks=2)


def test_block_evidence_of_sumst_and_of_optima_without_x_star():
    problem = make_problem("lasso")
    f_star = problem.objective.known_optimum[1]
    config = SolverConfig(mode="amst_adaptive", max_iters=600)
    for optimum in ((None, f_star), None):
        objective = dataclasses.replace(problem.objective, known_optimum=optimum)
        _assert_block_evidence_matches(objective, problem.setup, config, min_blocks=2)
    quad = make_problem("quadratic", dimension=10, seed=3)
    oracle = dataclasses.replace(quad.objective, noise_model=NoiseModel(kind="gaussian"))
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=0.1, max_iters=300)
    _assert_block_evidence_matches(oracle, quad.setup, config, rng=4)


@pytest.mark.parametrize("config", [SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=300),
                                    SolverConfig(mode="amst_adaptive", max_iters=300)])
def test_block_evidence_of_an_empty_center(config):
    # a zero-dimensional problem still runs, its block as long as any
    objective = CompositeObjective(smooth_value=lambda x: 0.0,
                                   smooth_grad=lambda x: np.zeros(0),
                                   known_optimum=(np.zeros(0), 0.0))
    _assert_block_evidence_matches(objective, euclidean_setup([]), config)


def test_partial_report_of_an_overflowing_run_keeps_every_row():
    # amst on the simplex halves L_trial after convergence until A_k passes
    # the 1e300 guard at k = 995, in the middle of the fourth block
    problem = make_problem("simplex_linear", dimension=6)
    config = SolverConfig(mode="amst_adaptive", max_iters=1200)
    _assert_block_evidence_matches(problem.objective, problem.setup, config,
                                   error=CoefficientOverflow, min_blocks=3)
    with pytest.raises(CoefficientOverflow, match="k=995") as caught:
        run(problem.objective, problem.setup, config)
    assert caught.value.report.trace.column("k").tolist() == list(range(995))


def test_block_evidence_of_a_value_that_turns_non_finite_mid_block():
    # the observer evaluates the exact-L mode's f(x) itself, unchecked: calls
    # 2k + 2 are f(x_k), so rows 20 and 30 read inf and nan, and call 601,
    # f(y) at k = 300, stops the run with a DomainError in the second block
    problem = make_problem("quadratic", dimension=6, seed=2)
    base = problem.objective
    calls = [0]

    def value(x):
        calls[0] += 1
        return {42: math.inf, 62: math.nan, 601: math.inf}.get(calls[0], base.smooth_value(x))

    objective = dataclasses.replace(base, smooth_value=value, linear=None)
    config = SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=400)
    expected, raised = _replayed_rows(objective, problem.setup, config)
    assert isinstance(raised, DomainError)
    calls[0] = 0
    with pytest.raises(DomainError) as caught:
        run(objective, problem.setup, config)
    trace = caught.value.report.trace
    assert len(trace) == len(expected) == 300
    assert trace.column("gap")[20] == math.inf and math.isnan(trace.column("gap")[30])
    for name, col in trace.data.items():
        want = np.array([row[name] for row in expected], dtype=col.dtype)
        assert col.tobytes() == want.tobytes(), name
