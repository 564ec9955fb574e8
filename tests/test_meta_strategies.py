"""Unit tests for regularization, distance-halving restarts, and the
quadratic-majorant constant for Holder-continuous gradients."""

import dataclasses
import math

import numpy as np
import pytest

from triangle_opt import (
    CompositeObjective,
    ConfigError,
    DomainError,
    NoiseModel,
    SimpleTerm,
    SolverConfig,
    UnsupportedGeometry,
    bregman_divergence,
    entropy_setup,
    euclidean_ball,
    euclidean_setup,
    grad,
    holder_majorant_L,
    inner_iterations,
    make_problem,
    recenter,
    regularize,
    restart_run,
    run,
)


def test_inner_iterations_examples():
    assert inner_iterations(8.0, 1.0, 1.0) == 8
    assert inner_iterations(1.0, 0.125, 1.0) == 8
    assert inner_iterations(1.0, 100.0, 1.0) == 1
    with pytest.raises(ConfigError):
        inner_iterations(0.0, 1.0, 1.0)


def test_restart_schedule_consistency():
    problem = make_problem("quadratic", dimension=4, seed=0)
    report = restart_run(problem.objective, problem.setup, L=8.0, mu=1.0, omega=1.0, K=0)
    assert report.trace.meta["n_bar"] == inner_iterations(8.0, 1.0, 1.0) == 8
    with pytest.raises(ConfigError):
        inner_iterations(8.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        restart_run(problem.objective, problem.setup, L=8.0, mu=0.0, omega=1.0, K=5)
    with pytest.raises(ConfigError):
        restart_run(problem.objective, problem.setup, L=8.0, mu=1.0, omega=1.0, K=-1)


def test_regularize_mu_value_and_center_gradient():
    problem = make_problem("quadratic", dimension=4, seed=0)
    reg, mu_reg = regularize(problem.objective, problem.setup, epsilon=0.1, R_sq=1.0)
    assert mu_reg == 0.05
    # added gradient vanishes at the prox center
    g_base = grad(problem.objective, problem.setup.center)
    g_reg = grad(reg, problem.setup.center)
    np.testing.assert_allclose(g_reg, g_base, atol=1e-14)
    # away from the center the euclidean term adds mu * (x - y0)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_allclose(grad(reg, x) - grad(problem.objective, x),
                               mu_reg * (x - problem.setup.center), atol=1e-12)
    # values add exactly mu * V(x, y0)
    want = problem.objective.smooth_value(x) + mu_reg * bregman_divergence(
        problem.setup, x, problem.setup.center)
    assert reg.smooth_value(x) == pytest.approx(want, rel=1e-12)
    assert reg.smoothness_meta["mu"] == pytest.approx(
        problem.objective.smoothness_meta["mu"] + mu_reg)
    assert reg.smoothness_meta["L"] == pytest.approx(
        problem.objective.smoothness_meta["L"] + mu_reg)
    # a noise model describes the base gradient, so the regularized objective has none
    noisy = dataclasses.replace(problem.objective, noise_model=NoiseModel(kind="gaussian"))
    assert regularize(noisy, problem.setup, epsilon=0.1, R_sq=1.0)[0].noise_model is None


def test_regularize_validation():
    problem = make_problem("quadratic", dimension=3, seed=1)
    with pytest.raises(ConfigError):
        regularize(problem.objective, problem.setup, epsilon=0.1, R_sq=None)
    with pytest.raises(ConfigError):
        regularize(problem.objective, problem.setup, epsilon=-1.0, R_sq=1.0)
    with pytest.raises(ConfigError):
        regularize(problem.objective, problem.setup, epsilon=0.1, R_sq=0.0)


def test_regularize_argmin_shift_is_order_mu():
    # strongly convex quadratic: the regularized argmin moves O(mu) from x*
    from triangle_opt import StoppingRule

    problem = make_problem("quadratic", dimension=6, seed=2, lam_min=0.5)
    x_star = problem.objective.known_optimum[0]
    h_matrix = problem.data["A_matrix"]
    y0 = problem.setup.center
    dist = float(np.linalg.norm(y0 - x_star))
    stop = StoppingRule(kind="gradient_mapping", threshold=1e-9)
    shifts = []
    for eps in (1e-2, 1e-3, 1e-4):
        reg, mu_reg = regularize(problem.objective, problem.setup, epsilon=eps, R_sq=2.0)
        config = SolverConfig(mode="amst_adaptive", L0=1.0, mu=0.5 + mu_reg,
                              max_iters=3000, stopping=stop)
        report = run(reg, problem.setup, config)
        shift = float(np.linalg.norm(report.final_x - x_star))
        # closed form: x_reg = (H + mu I)^-1 (H x* + mu y0)
        x_reg = np.linalg.solve(h_matrix + mu_reg * np.eye(6),
                                h_matrix @ x_star + mu_reg * y0)
        assert float(np.linalg.norm(report.final_x - x_reg)) <= 1e-6
        assert shift <= mu_reg / 0.5 * dist + 1e-6
        shifts.append(shift)
    # shift shrinks linearly with mu (factor 10 per decade, allow slack)
    assert shifts[1] <= 0.3 * shifts[0]
    assert shifts[2] <= 0.3 * shifts[1]


def test_restart_run_k0_returns_center():
    problem = make_problem("quadratic", dimension=5, seed=3, lam_min=0.2)
    report = restart_run(problem.objective, problem.setup, L=1.0, mu=0.2, omega=1.0, K=0)
    np.testing.assert_array_equal(report.final_x, problem.setup.center)
    assert report.iterations == 0
    assert len(report.trace) == 0
    assert report.trace.meta["n_bar"] == inner_iterations(1.0, 0.2, 1.0)


def test_restart_run_halves_distance_and_gap():
    problem = make_problem("quadratic", dimension=10, seed=1, lam_min=0.1)
    x_star, f_star = problem.objective.known_optimum
    dist0 = float(np.dot(x_star - problem.setup.center, x_star - problem.setup.center))
    report = restart_run(problem.objective, problem.setup, L=1.0, mu=0.1, omega=1.0, K=6)
    gaps = report.trace.column("gap")
    dists = report.trace.column("dist_x_sq")
    for k, gap in zip(report.trace.column("k"), gaps):
        assert gap <= 0.1 * dist0 / 2.0 ** (k + 1) + 1e-9
    # squared distance drops by at least half per restart
    prev = dist0
    for d in dists:
        assert d <= 0.5 * prev + 1e-12
        prev = d
    assert report.trace.meta["mu"] == 0.1
    assert report.trace.meta["y0_dist_sq"] == pytest.approx(dist0)


def test_restart_run_refuses_unsupported_setups():
    problem = make_problem("simplex_linear")
    with pytest.raises(UnsupportedGeometry):
        restart_run(problem.objective, problem.setup, L=1.0, mu=0.5, omega=1.0, K=2)

    quad = make_problem("quadratic", dimension=4, seed=0, feasible="box")
    with pytest.raises(ConfigError):
        restart_run(quad.objective, quad.setup, L=1.0, mu=0.02, omega=1.0, K=2)

    ball_setup = euclidean_setup(center=np.zeros(3),
                                 feasible_set=euclidean_ball(np.zeros(3), 1.0))
    obj = CompositeObjective(smooth_value=lambda x: 0.5 * float(np.dot(x, x)),
                             smooth_grad=lambda x: np.asarray(x, dtype=float))
    with pytest.raises(ConfigError):
        restart_run(obj, ball_setup, L=1.0, mu=1.0, omega=1.0, K=1)

    indicator_obj = CompositeObjective(smooth_value=lambda x: 0.5 * float(np.dot(x, x)),
                                       smooth_grad=lambda x: np.asarray(x, dtype=float),
                                       h=SimpleTerm(kind="indicator"))
    free_setup = euclidean_setup(center=np.zeros(3))
    with pytest.raises(ConfigError):
        restart_run(indicator_obj, free_setup, L=1.0, mu=1.0, omega=1.0, K=1)


def test_restart_run_supports_l1_composite():
    # strongly convex smooth part plus l1: whole-F strong convexity holds
    rng = np.random.default_rng(4)
    x_off = rng.standard_normal(4)
    obj = CompositeObjective(
        smooth_value=lambda x: 0.5 * float(np.dot(x - x_off, x - x_off)),
        smooth_grad=lambda x: np.asarray(x, dtype=float) - x_off,
        h=SimpleTerm(kind="l1", lam=0.3))
    setup = euclidean_setup(center=np.zeros(4))
    report = restart_run(obj, setup, L=1.0, mu=1.0, omega=1.0, K=5)
    final = report.final_x
    # the composite optimum is the soft-threshold of x_off; check stationarity
    from triangle_opt import gradient_mapping_residual
    assert gradient_mapping_residual(obj, setup, final, 1.0) <= 1e-3
    assert len(report.trace) == 5


def test_restart_boundary_rows_are_the_inner_runs_last_rows():
    # criterion 8's run: each boundary row is the last row its inner run
    # recorded, with only k and the cumulative counts set by the wrapper
    problem = make_problem("quadratic", dimension=10, seed=1, lam_min=0.1)
    big_l = problem.objective.smoothness_meta["L"]
    mu = problem.objective.smoothness_meta["mu"]
    report = restart_run(problem.objective, problem.setup, L=big_l, mu=mu, omega=1.0, K=8)
    inner_config = SolverConfig(mode="mst_exact_L", L_known=big_l,
                                max_iters=inner_iterations(big_l, mu, 1.0) + 1)
    rows = report.trace
    assert len(rows) == 8
    current = problem.setup.center
    cum = np.zeros(3, dtype=np.int64)
    for i in range(8):
        inner = run(problem.objective, recenter(problem.setup, current), inner_config)
        current = inner.final_x
        assert set(rows.data) == set(inner.trace.data)
        for name in inner.trace.data:
            if name not in ("k", "cum_f", "cum_grad", "cum_stoch"):
                np.testing.assert_array_equal(rows.column(name)[i], inner.trace.last(name),
                                              err_msg=name)
        cum += (inner.total_f_calls, inner.total_grad_calls, inner.total_stoch_calls)
        assert rows.column("k")[i] == i + 1
        assert [rows.column(name)[i] for name in ("cum_f", "cum_grad", "cum_stoch")] == list(cum)
        assert rows.column("cert_margin")[i] >= -1e-8 * max(1.0, rows.column("A")[i])
    np.testing.assert_array_equal(report.final_x, current)
    assert (report.total_f_calls, report.total_grad_calls, report.total_stoch_calls) == tuple(cum)


def test_restart_without_known_optimum_keeps_its_certificate():
    # the l1 composite of test_restart_run_supports_l1_composite: no x*, so
    # no gap, but every boundary carries its inner run's certificate
    rng = np.random.default_rng(4)
    x_off = rng.standard_normal(4)
    obj = CompositeObjective(
        smooth_value=lambda x: 0.5 * float(np.dot(x - x_off, x - x_off)),
        smooth_grad=lambda x: np.asarray(x, dtype=float) - x_off,
        h=SimpleTerm(kind="l1", lam=0.3))
    report = restart_run(obj, euclidean_setup(center=np.zeros(4)), L=1.0, mu=1.0,
                         omega=1.0, K=5)
    assert np.isnan(report.trace.column("gap")).all()
    assert np.isfinite(report.trace.column("cert_margin")).all()
    assert "y0_dist_sq" not in report.trace.meta


def _turns_nan_after(calls):
    """A strongly convex objective read through its oracles, whose value is
    nan from its (calls + 1)-th evaluation on."""
    x_off = np.array([1.0, -2.0, 0.5])
    made = [0]

    def value(x):
        made[0] += 1
        return math.nan if made[0] > calls else 0.5 * float(np.dot(x - x_off, x - x_off))

    return CompositeObjective(smooth_value=value,
                              smooth_grad=lambda x: np.asarray(x, dtype=float) - x_off), made


def test_a_failed_restart_keeps_the_boundary_rows_before_it():
    setup = euclidean_setup(center=np.zeros(3))
    counting, made = _turns_nan_after(math.inf)
    two = restart_run(counting, setup, L=1.0, mu=0.5, omega=1.0, K=2)
    # the third inner run reads a nan value after its first row
    failing, _ = _turns_nan_after(made[0] + 4)
    with pytest.raises(DomainError) as info:
        restart_run(failing, setup, L=1.0, mu=0.5, omega=1.0, K=5)
    report = info.value.report
    assert len(report.trace) == 2
    for name, col in two.trace.data.items():
        np.testing.assert_array_equal(report.trace.column(name), col, err_msg=name)
    np.testing.assert_array_equal(report.final_x, two.final_x)
    assert report.iterations == two.iterations
    # the failed run's calls count too
    third, _ = _turns_nan_after(4)
    inner_config = SolverConfig(mode="mst_exact_L", L_known=1.0,
                                max_iters=inner_iterations(1.0, 0.5, 1.0) + 1)
    with pytest.raises(DomainError) as partial:
        run(third, recenter(setup, two.final_x), inner_config)
    spent = partial.value.report
    assert spent.total_f_calls > 0
    assert report.total_f_calls == two.total_f_calls + spent.total_f_calls
    assert report.total_grad_calls == two.total_grad_calls + spent.total_grad_calls
    assert report.total_stoch_calls == 0


def test_holder_majorant_examples():
    assert holder_majorant_L(5.0, 1.0, 123.0) == 5.0
    assert holder_majorant_L(5.0, 1.0, 1e-12) == 5.0
    assert holder_majorant_L(2.0, 0.0, 1.0) == pytest.approx(2.0)
    assert holder_majorant_L(4.0, 0.0, 1.0) == pytest.approx(8.0)
    # nonincreasing in delta
    prev = math.inf
    for delta in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
        cur = holder_majorant_L(1.5, 0.5, delta)
        assert cur <= prev
        prev = cur
    with pytest.raises(ConfigError):
        holder_majorant_L(0.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        holder_majorant_L(1.0, 1.5, 1.0)
    with pytest.raises(ConfigError):
        holder_majorant_L(1.0, 0.5, 0.0)


_QUAD = make_problem("quadratic", dimension=4, seed=0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: inner_iterations(math.nan, 1.0, 1.0), id="inner-L-nan"),
    pytest.param(lambda: inner_iterations(1.0, math.nan, 1.0), id="inner-mu-nan"),
    pytest.param(lambda: inner_iterations(1.0, 1.0, math.nan), id="inner-omega-nan"),
    pytest.param(lambda: inner_iterations(math.inf, 1.0, 1.0), id="inner-L-inf"),
    pytest.param(lambda: inner_iterations(1.0, math.inf, 1.0), id="inner-mu-inf"),
    pytest.param(lambda: inner_iterations(1.0, 1.0, math.inf), id="inner-omega-inf"),
    pytest.param(lambda: inner_iterations(1e300, 1e-300, 1.0), id="inner-overflow"),
    pytest.param(lambda: holder_majorant_L(math.nan, 0.5, 1.0), id="majorant-L_nu-nan"),
    pytest.param(lambda: holder_majorant_L(math.inf, 0.5, 1.0), id="majorant-L_nu-inf"),
    pytest.param(lambda: holder_majorant_L(1.0, math.nan, 1.0), id="majorant-nu-nan"),
    pytest.param(lambda: holder_majorant_L(1.0, 0.5, math.nan), id="majorant-delta-nan"),
    pytest.param(lambda: holder_majorant_L(1.0, 0.5, math.inf), id="majorant-delta-inf"),
    pytest.param(lambda: holder_majorant_L(1.0, 0.0, 1e-320), id="majorant-overflow"),
    pytest.param(lambda: restart_run(_QUAD.objective, _QUAD.setup, L=math.nan, mu=1.0,
                                     omega=1.0, K=1), id="restart_run-L-nan"),
    pytest.param(lambda: restart_run(_QUAD.objective, _QUAD.setup, L=1.0, mu=math.inf,
                                     omega=1.0, K=1), id="restart_run-mu-inf"),
])
def test_non_finite_constants_are_config_errors(call):
    with pytest.raises(ConfigError):
        call()


def test_holder_majorant_inequality_on_power_function():
    # f = (1/p)||x||^p with p = 1 + nu; the majorant with slack delta must
    # upper-bound f on sampled pairs
    rng = np.random.default_rng(6)
    for nu in (0.0, 0.5, 1.0):
        p = 1.0 + nu
        l_nu = 2.0 ** (1.0 - nu)

        def f(x):
            return float(np.linalg.norm(x) ** p) / p

        def df(x):
            nrm = float(np.linalg.norm(x))
            if nrm == 0.0:
                return np.zeros_like(x)
            return nrm ** (p - 2.0) * x

        for delta in (0.1, 0.01):
            L = holder_majorant_L(l_nu, nu, delta)
            worst = -math.inf
            for _ in range(2000):
                x = rng.standard_normal(3)
                x *= rng.random() ** (1.0 / 3.0) / np.linalg.norm(x)
                y = rng.standard_normal(3)
                y *= rng.random() ** (1.0 / 3.0) / np.linalg.norm(y)
                lhs = f(x)
                rhs = (f(y) + float(np.dot(df(y), x - y))
                       + 0.5 * L * float(np.dot(x - y, x - y)) + delta)
                worst = max(worst, lhs - rhs)
            assert worst <= 1e-12
