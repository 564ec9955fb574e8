"""Tests for the benchmark problem zoo: construction, exact metadata,
frozen optima, and option validation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from triangle_opt import (DESCRIPTIONS, ZOO_KINDS, CompositeObjective,
                          ConfigError, DomainError, ProblemSpec, SimpleTerm,
                          grad, gradient_mapping_residual, make_problem, value)
from triangle_opt.zoo import (_KINDS, _fd_consistency_check, _image_consistency_check,
                              _imaged_objective, _normal_probes)

_DEFAULTS = {"quadratic": 50, "lasso": 12, "holder_norm_power": 5,
             "logistic": 8, "simplex_linear": 6}


def test_kinds_and_descriptions_cover_each_other():
    assert set(ZOO_KINDS) == set(_DEFAULTS)
    assert set(DESCRIPTIONS) == set(ZOO_KINDS)
    for kind in ZOO_KINDS:
        assert DESCRIPTIONS[kind].strip()


def test_default_dimensions():
    for kind, dim in _DEFAULTS.items():
        problem = make_problem(kind)
        assert problem.spec.kind == kind
        assert problem.spec.dimension == dim
        assert problem.setup.center.shape == (dim,)


@pytest.mark.parametrize("kind", ZOO_KINDS)
@pytest.mark.parametrize("key, bad", [
    ("dimension", -1), ("dimension", 0), ("dimension", 2.5), ("dimension", "5"),
    ("dimension", True), ("seed", -1), ("seed", 1.5), ("seed", "0"), ("seed", False),
])
def test_make_problem_checks_dimension_and_seed_before_building(kind, key, bad):
    args = {"dimension": _DEFAULTS[kind], "seed": 0, key: bad}
    with pytest.raises(ConfigError, match=f"{key} must be an integer >= "):
        make_problem(kind, **args)


@pytest.mark.parametrize("kind, name, bad", [
    ("quadratic", "lam_min", "x"), ("quadratic", "lam_max", None),
    ("quadratic", "x_star_norm", "2"), ("quadratic", "lam_min", True),
    ("quadratic", "lam_max", math.inf), ("quadratic", "feasible", 1),
    ("quadratic", "feasible", None), ("lasso", "lam", math.nan), ("lasso", "lam", None),
    ("lasso", "lam", [0.5]), ("holder_norm_power", "p", True),
    ("holder_norm_power", "p", -math.inf),
])
def test_make_problem_checks_option_types_before_building(kind, name, bad):
    with pytest.raises(ConfigError, match=f"^{kind} option {name} must be (a |finite)"):
        make_problem(kind, **{name: bad})


def test_numeric_options_take_ints_and_numpy_numbers():
    a = make_problem("quadratic", dimension=4, lam_min=np.float64(0.25), lam_max=2)
    b = make_problem("quadratic", dimension=4, lam_min=0.25, lam_max=2.0)
    np.testing.assert_array_equal(a.data["A_matrix"], b.data["A_matrix"])
    assert make_problem("holder_norm_power", p=np.int64(2)).data["p"] == 2


def _bits(problem):
    """Everything an instance is made of that can be compared bit for bit."""
    x_star, f_star = problem.objective.known_optimum or (None, None)
    return (problem.spec, {k: np.asarray(v).tobytes() for k, v in problem.data.items()},
            None if x_star is None else (x_star.tobytes(), f_star),
            problem.objective.smoothness_meta, problem.setup.center.tobytes(),
            problem.setup.feasible_set.kind, problem.objective.h)


@pytest.mark.parametrize("kind", ZOO_KINDS)
def test_the_table_defaults_are_the_defaults(kind):
    row = _KINDS[kind]
    explicit = make_problem(kind, dimension=row.dimension, seed=0, **row.options)
    assert _bits(explicit) == _bits(make_problem(kind))


def test_make_problem_takes_numpy_integers():
    a = make_problem("quadratic", np.int64(4), np.int64(1))
    b = make_problem("quadratic", 4, 1)
    assert a.setup.center.shape == (4,)
    np.testing.assert_array_equal(a.objective.known_optimum[0], b.objective.known_optimum[0])


def test_make_problem_rejects_bad_requests():
    with pytest.raises(ConfigError):
        make_problem("cubic")
    with pytest.raises(ConfigError):
        make_problem("quadratic", lam=0.5)
    with pytest.raises(ConfigError):
        make_problem("lasso", p=1.5)
    with pytest.raises(ConfigError):
        make_problem("logistic", lam=0.1)
    with pytest.raises(ConfigError):
        make_problem("quadratic", dimension=0)
    with pytest.raises(ConfigError):
        make_problem("simplex_linear", dimension=1)
    with pytest.raises(ConfigError):
        make_problem("lasso", lam=-0.1)
    with pytest.raises(ConfigError):
        make_problem("holder_norm_power", p=0.99)
    with pytest.raises(ConfigError):
        make_problem("holder_norm_power", p=2.01)
    with pytest.raises(ConfigError):
        make_problem("quadratic", lam_min=0.0)
    with pytest.raises(ConfigError):
        make_problem("quadratic", lam_min=2.0, lam_max=1.0)
    with pytest.raises(ConfigError):
        make_problem("quadratic", feasible="ball")


def test_quadratic_exact_structure():
    problem = make_problem("quadratic", dimension=9, seed=4,
                           lam_min=0.3, lam_max=2.5, x_star_norm=1.75)
    meta = problem.objective.smoothness_meta
    assert meta["L"] == 2.5
    assert meta["mu"] == 0.3
    x_star, f_star = problem.objective.known_optimum
    assert f_star == 0.0
    assert np.linalg.norm(x_star) == pytest.approx(1.75, rel=1e-12)
    # value is computed cancellation-free: exactly zero at the optimum
    assert value(problem.objective, x_star) == 0.0
    assert np.linalg.norm(grad(problem.objective, x_star)) <= 1e-12
    # stored matrix form agrees with the oracle gradient: grad = H x - b
    h_matrix, b = problem.data["A_matrix"], problem.data["b"]
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.standard_normal(9)
        assert np.allclose(grad(problem.objective, x), h_matrix @ x - b,
                           atol=1e-10)
    # spectrum endpoints are the advertised constants
    eigs = np.linalg.eigvalsh(h_matrix)
    assert eigs[0] == pytest.approx(0.3, rel=1e-10)
    assert eigs[-1] == pytest.approx(2.5, rel=1e-10)


def test_quadratic_box_instance_keeps_optimum_feasible():
    problem = make_problem("quadratic", dimension=7, seed=11, feasible="box")
    x_star = problem.objective.known_optimum[0]
    feas = problem.setup.feasible_set
    assert feas.kind == "box"
    assert np.all(x_star >= feas.lower) and np.all(x_star <= feas.upper)
    # the box is wide enough that the unconstrained optimum stays interior
    assert np.all(np.abs(x_star) < feas.upper)


def test_frozen_lasso_optimum_is_stationary():
    problem = make_problem("lasso")
    assert problem.objective.known_optimum is not None
    x_star, f_star = problem.objective.known_optimum
    assert problem.objective.composite_value(x_star) == pytest.approx(
        f_star, abs=1e-12)
    meta = problem.objective.smoothness_meta
    res = gradient_mapping_residual(problem.objective, problem.setup,
                                    x_star, L=meta["L"])
    assert res <= 1e-8
    # subgradient optimality, checked coordinate by coordinate
    g = grad(problem.objective, x_star)
    lam = problem.data["lam"]
    for i in range(x_star.size):
        if x_star[i] != 0.0:
            assert abs(g[i] + lam * np.sign(x_star[i])) <= 1e-8
        else:
            assert abs(g[i]) <= lam + 1e-12


def test_frozen_logistic_optimum_is_stationary():
    problem = make_problem("logistic")
    assert problem.objective.known_optimum is not None
    x_star, f_star = problem.objective.known_optimum
    assert problem.objective.composite_value(x_star) == pytest.approx(
        f_star, abs=1e-12)
    assert np.max(np.abs(grad(problem.objective, x_star))) <= 1e-10


def test_noncanonical_instances_have_unknown_optimum():
    assert make_problem("lasso", seed=1).objective.known_optimum is None
    assert make_problem("lasso", lam=0.7).objective.known_optimum is None
    assert make_problem("logistic", dimension=4).objective.known_optimum is None


def test_holder_norm_power_meta_and_gradient():
    for p, l_nu in ((1.0, 2.0), (1.5, 2.0 ** 0.5), (2.0, 1.0)):
        problem = make_problem("holder_norm_power", dimension=3, p=p)
        meta = problem.objective.smoothness_meta
        assert meta["nu"] == pytest.approx(p - 1.0, abs=1e-15)
        assert meta["L_nu"] == pytest.approx(l_nu, rel=1e-15)
        assert np.all(grad(problem.objective, np.zeros(3)) == 0.0)
        x_star, f_star = problem.objective.known_optimum
        assert np.all(x_star == 0.0) and f_star == 0.0


def test_simplex_linear_structure():
    problem = make_problem("simplex_linear", dimension=5, seed=3)
    costs = problem.data["costs"]
    x_star, f_star = problem.objective.known_optimum
    best = int(np.argmin(costs))
    assert x_star[best] == 1.0 and np.sum(x_star) == 1.0
    assert f_star == pytest.approx(float(costs[best]), rel=1e-15)
    # the least-cost entry is strictly unique by construction
    sorted_costs = np.sort(costs)
    assert sorted_costs[1] - sorted_costs[0] > 1e-6
    assert problem.setup.geometry == "entropy"
    assert problem.objective.h.kind == "indicator"


def test_problem_spec_validation():
    spec = ProblemSpec("lasso", 12, 0)
    assert spec.kind == "lasso"
    with pytest.raises(ConfigError):
        ProblemSpec("cubic", 4, 0)
    with pytest.raises(ConfigError):
        ProblemSpec("lasso", 0, 0)


def test_fd_guard_catches_an_inconsistent_gradient():
    objective = CompositeObjective(
        smooth_value=lambda x: float(x @ x),
        smooth_grad=lambda x: 4.0 * np.asarray(x, dtype=float),
        h=SimpleTerm(kind="zero"))
    with pytest.raises(DomainError):
        _fd_consistency_check(objective, [np.ones(3)])


IMAGED_KINDS = ("quadratic", "lasso", "logistic")


@pytest.mark.parametrize("kind", IMAGED_KINDS)
def test_image_reproduces_the_oracles(kind):
    problem = make_problem(kind, seed=4)
    obj = problem.objective
    image = obj.linear
    rng = np.random.default_rng(6)
    for x in [problem.setup.center] + [rng.standard_normal(problem.spec.dimension)
                                       for _ in range(3)]:
        z = image.forward(x)
        assert image.psi(z) == obj.smooth_value(x)
        np.testing.assert_array_equal(image.adjoint(image.psi_grad(z)), obj.smooth_grad(x))


@pytest.mark.parametrize("kind", IMAGED_KINDS)
def test_psi_bregman_keeps_its_accuracy_as_the_step_shrinks(kind):
    # the value difference loses ~|psi| * 1e-16 to cancellation; psi_bregman
    # must track D ~ |dz|^2 down to steps where that difference is all noise
    problem = make_problem(kind, seed=2)
    image = problem.objective.linear
    rng = np.random.default_rng(3)
    z = image.forward(rng.standard_normal(problem.spec.dimension))
    direction = image.forward(rng.standard_normal(problem.spec.dimension)) - image.forward(
        np.zeros(problem.spec.dimension))
    d_unit = image.psi_bregman(z, 1e-4 * direction) / 1e-8
    for scale in (1e-6, 1e-8, 1e-10):
        ratio = image.psi_bregman(z, scale * direction) / (scale * scale * d_unit)
        assert abs(ratio - 1.0) <= 1e-3, scale


def _broken(problem, **fields):
    obj = problem.objective
    return dataclasses.replace(obj, linear=dataclasses.replace(obj.linear, **fields))


@pytest.mark.parametrize("field,replacement", [
    ("psi", lambda z: 0.5 * float(z @ z) * (1.0 + 1e-9)),
    ("psi_bregman", lambda z, dz: 0.6 * float(dz @ dz)),
    ("adjoint", None),
    # the lasso's quadratic form, off in its Hessian product, center or value
    pytest.param("quadratic", lambda q: dataclasses.replace(
        q, hessian=lambda v: q.hessian(v) * (1 + 1e-9)), id="quadratic-hessian"),
    pytest.param("quadratic", lambda q: dataclasses.replace(q, center=q.center + 1e-6),
                 id="quadratic-center"),
    pytest.param("quadratic", lambda q: dataclasses.replace(q, value=q.value + 1e-6),
                 id="quadratic-value"),
])
def test_image_guard_catches_an_inconsistent_image(field, replacement):
    problem = make_problem("lasso", seed=1)
    if field == "quadratic":
        obj = _broken(problem, quadratic=replacement(problem.objective.linear.quadratic))
    elif field == "adjoint":
        design = problem.data["design"]
        # a wrong adjoint paired with oracles that agree with it: only the
        # dot-product test can tell
        wrong = lambda w: design.T @ w[::-1]
        obj = _broken(problem, adjoint=wrong)
        obj = dataclasses.replace(
            obj, smooth_grad=lambda x: wrong(obj.linear.psi_grad(obj.linear.forward(x))))
    else:
        obj = _broken(problem, **{field: replacement})
    rng = np.random.default_rng(0)
    points = [rng.standard_normal(problem.spec.dimension) for _ in range(2)]
    _image_consistency_check(problem.objective, points)
    with pytest.raises(DomainError):
        _image_consistency_check(obj, points)



def _corrupted(image, part):
    """The image with one part off by 1%, or its quadratic form's value off by 1."""
    form = image.quadratic
    if part == "hessian":
        return dataclasses.replace(image, quadratic=dataclasses.replace(
            form, hessian=lambda v: 1.01 * form.hessian(v)))
    if part == "value":
        return dataclasses.replace(image, quadratic=dataclasses.replace(
            form, value=form.value + 1.0))
    original = getattr(image, part)
    return dataclasses.replace(image, **{part: lambda *args: 1.01 * original(*args)})


@pytest.mark.parametrize("kind", ("quadratic", "lasso"))
@pytest.mark.parametrize("part", ("psi_grad", "adjoint", "psi_bregman", "hessian", "value"))
def test_make_problems_guards_catch_a_corrupted_image(kind, part):
    # the oracles are built from the corrupted image, as make_problem builds
    # them, so only the two guards it runs can tell
    problem = make_problem(kind, dimension=6, seed=3)
    points = _normal_probes(6, 3)

    def guards(image):
        objective = _imaged_objective(image, h=problem.objective.h)
        _fd_consistency_check(objective, points)
        _image_consistency_check(objective, points)

    guards(problem.objective.linear)
    with pytest.raises(DomainError):
        guards(_corrupted(problem.objective.linear, part))


def test_a_quadratic_keeps_one_matrix():
    # H alone: the basis Q it is built from is dropped, so an instance keeps
    # one n-by-n matrix, not two
    n = 300
    make_problem("quadratic", dimension=2)  # imports what a first build imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        problem = make_problem("quadratic", dimension=n)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert problem.data["A_matrix"].nbytes == n * n * 8
    assert kept <= 1.25 * n * n * 8


def test_make_problem_is_deterministic():
    a = make_problem("lasso", seed=5)
    b = make_problem("lasso", seed=5)
    assert np.array_equal(a.data["design"], b.data["design"])
    assert np.array_equal(a.data["targets"], b.data["targets"])
    c = make_problem("quadratic", dimension=6, seed=9)
    d = make_problem("quadratic", dimension=6, seed=9)
    assert np.array_equal(c.data["x_star"], d.data["x_star"])
    assert np.array_equal(c.data["A_matrix"], d.data["A_matrix"])
