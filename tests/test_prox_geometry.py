"""Unit tests for norms, prox setups, Bregman divergences, estimate functions,
and the closed-form composite prox step."""

import dataclasses
import math

import numpy as np
import pytest

from triangle_opt import (
    DomainError,
    EstimateFunction,
    ProxSetup,
    SimpleTerm,
    UnsupportedGeometry,
    box,
    bregman_divergence,
    composite_prox_solve,
    entropy_setup,
    estimate_value,
    euclidean_ball,
    euclidean_setup,
    free_space,
    initial_estimate,
    project_to_simplex,
    recenter,
    soft_threshold,
)


def test_norm_axioms_sampled():
    setup_e = euclidean_setup(center=np.zeros(4))
    setup_s = entropy_setup(4)
    rng = np.random.default_rng(0)
    for setup, dual in ((setup_e, np.linalg.norm), (setup_s, lambda g: np.abs(g).max())):
        norm = setup.norm
        assert norm(np.zeros(4)) == 0.0
        for _ in range(200):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            g = rng.standard_normal(4)
            t = rng.uniform(-3.0, 3.0)
            assert norm(t * x) == pytest.approx(abs(t) * norm(x), rel=1e-12)
            assert norm(x + y) <= norm(x) + norm(y) + 1e-12
            assert abs(np.dot(g, x)) <= dual(g) * norm(x) + 1e-12


@pytest.mark.parametrize("size", [0, 1, 5, 50, 1000])
def test_norms_match_numpy_bit_for_bit(size):
    # the solver's traces depend on these bits: euclidean norms must equal
    # np.linalg.norm and l1 norms np.sum(np.abs(v)), for contiguous arrays,
    # strided views and each row of a block alike, from tiny to huge magnitudes
    euclidean = euclidean_setup(center=np.zeros(max(size, 1))).norm
    l1 = entropy_setup(max(size, 2)).norm
    rng = np.random.default_rng(size)
    scales = [10.0 ** e for e in (-150, -50, 0, 50, 150)]
    scales.append(10.0 ** rng.uniform(-150.0, 150.0, 2 * size))  # mixed magnitudes
    for scale in scales:
        base = rng.standard_normal(2 * size) * scale
        for v in (base[:size], base[::2]):
            assert euclidean(v).hex() == float(np.linalg.norm(v)).hex()
            assert l1(v).hex() == float(np.sum(np.abs(v))).hex()
        block = np.stack([base[:size], base[size:], base[::2], base[1::2]])
        for norm, one in ((euclidean, np.linalg.norm), (l1, lambda v: np.sum(np.abs(v)))):
            rows = norm(block)
            assert isinstance(rows, np.ndarray) and rows.shape == (4,)
            assert [r.hex() for r in rows.tolist()] == [float(one(v)).hex() for v in block]
    integers = np.arange(-size, size, 2)  # np.linalg.norm sums integers as floats
    assert euclidean(integers).hex() == float(np.linalg.norm(integers)).hex()


def test_d_value_zero_at_center_and_nonnegative():
    rng = np.random.default_rng(1)
    setup = euclidean_setup(center=rng.standard_normal(3))
    assert setup.d_value(setup.center) == 0.0
    for _ in range(50):
        assert setup.d_value(rng.standard_normal(3)) >= 0.0
    ent = entropy_setup(5)
    assert ent.d_value(ent.center) == pytest.approx(0.0, abs=1e-15)
    for _ in range(50):
        p = rng.dirichlet(np.ones(5))
        assert ent.d_value(p) >= -1e-15


def test_bregman_euclidean_examples():
    setup = euclidean_setup(center=np.zeros(2))
    assert bregman_divergence(setup, np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert bregman_divergence(setup, np.array([3.0, 0.0]), np.array([0.0, 4.0])) == 12.5


def test_bregman_entropy_is_kl():
    setup = entropy_setup(2)
    x = np.array([0.5, 0.5])
    z = np.array([0.25, 0.75])
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert bregman_divergence(setup, x, z) == pytest.approx(expected, rel=1e-12)
    assert bregman_divergence(setup, x, z) == pytest.approx(0.143841, abs=1e-6)


def test_bregman_entropy_boundary_raises():
    setup = entropy_setup(3)
    x = np.array([0.2, 0.3, 0.5])
    z = np.array([0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        bregman_divergence(setup, x, z)


def feasible_pairs(setup, seed, n_pairs):
    """n_pairs random pairs (x, z) of points of the setup's feasible set."""
    rng = np.random.default_rng(seed)
    n = setup.center.size
    fs = setup.feasible_set

    def points():
        if fs.kind == "free_space":
            return setup.center + rng.standard_normal((n_pairs, n))
        if fs.kind == "box":
            return rng.uniform(fs.lower, fs.upper, size=(n_pairs, n))
        if fs.kind == "simplex":
            return rng.dirichlet(np.ones(n), size=n_pairs)
        direction = rng.standard_normal((n_pairs, n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        scale = fs.radius * rng.random(n_pairs) ** (1.0 / n)
        return fs.ball_center + direction * scale[:, None]

    return zip(points(), points())


def worst_strong_convexity_gap(setup, seed, n_pairs):
    """Max over sampled feasible pairs of 1/2 ||x - z||^2 - V(x, z); <= 0 means d is
    1-strongly convex in the primal norm on the sample, which every rate bound uses."""
    return max(0.5 * setup.norm(x - z) ** 2 - bregman_divergence(setup, x, z)
               for x, z in feasible_pairs(setup, seed, n_pairs))


def test_bregman_divergence_is_strongly_convex_euclidean_exact():
    setup = euclidean_setup(center=np.zeros(6))
    assert worst_strong_convexity_gap(setup, seed=3, n_pairs=500) <= 1e-12


def test_bregman_divergence_is_strongly_convex_entropy_pinsker():
    setup = entropy_setup(4)
    assert worst_strong_convexity_gap(setup, seed=4, n_pairs=10000) <= 1e-9


def test_bregman_divergence_is_strongly_convex_on_constrained_sets():
    rng = np.random.default_rng(9)
    for feas in (box(-np.ones(3), np.ones(3)),
                 euclidean_ball(rng.standard_normal(3), 2.0)):
        setup = euclidean_setup(center=np.zeros(3), feasible_set=feas)
        assert worst_strong_convexity_gap(setup, seed=5, n_pairs=2000) <= 1e-12


def test_prox_free_space_examples():
    setup = euclidean_setup(center=np.zeros(2))
    h = SimpleTerm(kind="zero")
    phi = EstimateFunction(d_scale=1.0, linear=np.array([2.0, -4.0]), h_scale=0.0, constant=0.0)
    np.testing.assert_allclose(composite_prox_solve(setup, phi, h), [-2.0, 4.0], atol=1e-15)
    phi2 = EstimateFunction(d_scale=2.0, linear=np.array([2.0, -4.0]), h_scale=0.0, constant=0.0)
    np.testing.assert_allclose(composite_prox_solve(setup, phi2, h), [-1.0, 2.0], atol=1e-15)


def test_prox_l1_soft_threshold_example():
    setup = euclidean_setup(center=np.zeros(2))
    h = SimpleTerm(kind="l1", lam=1.0)
    phi = EstimateFunction(d_scale=1.0, linear=np.array([3.0, -0.5]), h_scale=1.0, constant=0.0)
    np.testing.assert_allclose(composite_prox_solve(setup, phi, h), [-2.0, 0.0], atol=1e-15)


def test_prox_entropy_uniform_example():
    setup = entropy_setup(3)
    phi = EstimateFunction(d_scale=1.0, linear=np.zeros(3), h_scale=0.0, constant=0.0)
    out = composite_prox_solve(setup, phi, SimpleTerm(kind="indicator"))
    np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), atol=1e-15)


def test_prox_entropy_softmax_closed_form():
    setup = entropy_setup(4)
    rng = np.random.default_rng(11)
    for _ in range(20):
        linear = rng.standard_normal(4) * 5.0
        d_scale = rng.uniform(0.5, 3.0)
        phi = EstimateFunction(d_scale=d_scale, linear=linear, h_scale=0.0, constant=0.0)
        out = composite_prox_solve(setup, phi, SimpleTerm(kind="indicator"))
        ref = np.exp(-linear / d_scale)
        ref = ref / ref.sum()
        np.testing.assert_allclose(out, ref, rtol=1e-12)
        assert out.min() > 0.0
        assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_prox_box_clip_and_ball_projection():
    setup_box = euclidean_setup(center=np.zeros(2), feasible_set=box(-np.ones(2), np.ones(2)))
    phi = EstimateFunction(d_scale=1.0, linear=np.array([5.0, -0.3]), h_scale=0.0, constant=0.0)
    np.testing.assert_allclose(composite_prox_solve(setup_box, phi, SimpleTerm()), [-1.0, 0.3])
    setup_ball = euclidean_setup(center=np.zeros(2),
                                 feasible_set=euclidean_ball(np.zeros(2), 1.0))
    phi2 = EstimateFunction(d_scale=1.0, linear=np.array([-3.0, -4.0]), h_scale=0.0, constant=0.0)
    np.testing.assert_allclose(composite_prox_solve(setup_ball, phi2, SimpleTerm()), [0.6, 0.8])


def test_prox_rejects_nonpositive_d_scale():
    setup = euclidean_setup(center=np.zeros(2))
    phi = EstimateFunction(d_scale=0.0, linear=np.zeros(2), h_scale=0.0, constant=0.0)
    with pytest.raises(DomainError):
        composite_prox_solve(setup, phi, SimpleTerm())


def test_prox_l1_on_ball_unsupported():
    setup = euclidean_setup(center=np.zeros(2),
                            feasible_set=euclidean_ball(np.zeros(2), 1.0))
    phi = EstimateFunction(d_scale=1.0, linear=np.ones(2), h_scale=1.0, constant=0.0)
    with pytest.raises(UnsupportedGeometry):
        composite_prox_solve(setup, phi, SimpleTerm(kind="l1", lam=0.5))


def test_soft_threshold_values():
    v = np.array([3.0, -0.5, 0.2, -4.0])
    np.testing.assert_allclose(soft_threshold(v, 1.0), [2.0, 0.0, 0.0, -3.0])
    np.testing.assert_allclose(soft_threshold(v, 0.0), v)


def test_project_to_simplex_basic():
    np.testing.assert_allclose(project_to_simplex(np.array([0.2, 0.3, 0.5])),
                               [0.2, 0.3, 0.5], atol=1e-15)
    out = project_to_simplex(np.array([10.0, 0.0, -5.0]))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = project_to_simplex(rng.standard_normal(6) * 3.0)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_initial_estimate_is_bregman_to_center():
    rng = np.random.default_rng(7)
    for setup in (euclidean_setup(center=rng.standard_normal(4)), entropy_setup(4)):
        phi0 = initial_estimate(setup)
        h = SimpleTerm(kind="zero")
        for _ in range(10):
            if setup.geometry == "entropy":
                x = rng.dirichlet(np.ones(4))
            else:
                x = rng.standard_normal(4)
            want = bregman_divergence(setup, x, setup.center)
            got = estimate_value(setup, phi0, h, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_canonical_fold_matches_recursive_definition():
    # fold the estimate several times and compare against the explicit sum
    # of linearization terms at random probe points
    from triangle_opt import fold_estimate

    rng = np.random.default_rng(13)
    setup = euclidean_setup(center=rng.standard_normal(3))
    h = SimpleTerm(kind="l1", lam=0.7)
    mu_tilde = 0.3
    phi = initial_estimate(setup)
    terms = []
    for _ in range(6):
        alpha = rng.uniform(0.2, 2.0)
        y = rng.standard_normal(3)
        g = rng.standard_normal(3)
        f_y = rng.standard_normal()
        phi = fold_estimate(phi, alpha, y, g, f_y, mu_tilde, setup)
        terms.append((alpha, y.copy(), g.copy(), f_y))

    for _ in range(10):
        x = rng.standard_normal(3)
        explicit = bregman_divergence(setup, x, setup.center)
        for alpha, y, g, f_y in terms:
            explicit += alpha * (f_y + float(np.dot(g, x - y))
                                 + mu_tilde * bregman_divergence(setup, x, y)
                                 + h.value(x))
        folded = estimate_value(setup, phi, h, x)
        assert folded == pytest.approx(explicit, rel=1e-9)


def test_recenter_moves_the_prox_center():
    setup = euclidean_setup(center=np.zeros(3))
    c = np.array([1.0, -2.0, 0.5])
    moved = recenter(setup, c)
    assert moved.d_value(c) == 0.0
    assert bregman_divergence(moved, c, c) == 0.0
    # strong convexity modulus unchanged
    assert worst_strong_convexity_gap(moved, seed=1, n_pairs=500) <= 1e-12


def test_recenter_identity_and_entropy_refusal():
    setup = euclidean_setup(center=np.array([2.0, 3.0]))
    same = recenter(setup, setup.center)
    np.testing.assert_array_equal(same.center, setup.center)
    assert same.geometry == setup.geometry
    with pytest.raises(UnsupportedGeometry):
        recenter(entropy_setup(3), np.full(3, 1.0 / 3.0))


def test_recenter_shape_mismatch():
    setup = euclidean_setup(center=np.zeros(3))
    with pytest.raises(DomainError):
        recenter(setup, np.zeros(4))


def test_omega_constants_validated():
    with pytest.raises(DomainError):
        euclidean_setup(center=np.zeros(2), omega_tilde=0.5)
    with pytest.raises(DomainError):
        entropy_setup(1)


@pytest.mark.parametrize("value, message", [
    (0.5, "omega_tilde must be >= 1"),
    (math.inf, "omega_tilde must be finite"),
    (math.nan, "omega_tilde must be finite"),
])
def test_every_setup_checks_omega_tilde(value, message):
    # omega_tilde belongs to the geometry, so the setup checks it, not the
    # solver config; replace and recenter build a setup too
    setup = euclidean_setup(center=np.zeros(2), omega_tilde=2.0)
    assert recenter(setup, np.ones(2)).omega_tilde == 2.0
    with pytest.raises(DomainError, match=f"^{message}"):
        dataclasses.replace(setup, omega_tilde=value)
    with pytest.raises(DomainError, match=f"^{message}"):
        entropy_setup(3, omega_tilde=value)


def test_the_norms_follow_the_geometry_and_an_unknown_one_is_rejected():
    v = np.array([3.0, -4.0, 0.0])
    assert euclidean_setup(center=np.zeros(3)).norm(v) == 5.0
    assert entropy_setup(3).norm(v) == 7.0
    moved = dataclasses.replace(entropy_setup(3), geometry="euclidean")
    assert moved.norm(v) == 5.0
    # d and the prox step would read a misspelt geometry differently
    for name in ("Euclidean", "entropy ", ""):
        with pytest.raises(DomainError, match="unknown geometry"):
            ProxSetup(geometry=name, center=np.zeros(2), feasible_set=free_space())
        with pytest.raises(DomainError, match="unknown geometry"):
            dataclasses.replace(euclidean_setup(center=np.zeros(2)), geometry=name)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SimpleTerm(kind="l1", lam=math.nan), id="l1-nan"),
    pytest.param(lambda: SimpleTerm(kind="l1", lam=math.inf), id="l1-inf"),
    pytest.param(lambda: euclidean_ball(np.zeros(2), math.nan), id="ball-nan"),
    pytest.param(lambda: euclidean_ball(np.zeros(2), math.inf), id="ball-inf"),
    pytest.param(lambda: box([math.nan, 0.0], [1.0, 1.0]), id="box-lower-nan"),
    pytest.param(lambda: box([0.0, 0.0], [1.0, math.nan]), id="box-upper-nan"),
])
def test_non_finite_h_and_feasible_set_parameters_are_rejected(make):
    # a NaN l1 weight made the prox skip its shrink, as if lam were 0
    with pytest.raises(DomainError):
        make()


def test_infinite_box_bounds_stay_allowed():
    fs = box([-math.inf, 0.0], [math.inf, 1.0])
    setup = euclidean_setup(center=np.zeros(2), feasible_set=fs)
    phi = EstimateFunction(d_scale=1.0, linear=np.array([-5.0, -5.0]), h_scale=0.0,
                           constant=0.0)
    np.testing.assert_array_equal(composite_prox_solve(setup, phi, SimpleTerm()), [5.0, 1.0])


@pytest.mark.parametrize("lower, upper", [
    ([math.inf], [math.inf]),
    ([-math.inf], [-math.inf]),
    ([0.0, math.inf], [1.0, math.inf]),
    ([-math.inf, -math.inf], [1.0, -math.inf]),
])
def test_an_empty_box_with_an_infinite_bound_is_rejected(lower, upper):
    with pytest.raises(DomainError, match="box is empty"):
        box(lower, upper)


@pytest.mark.parametrize("center", [
    [math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], np.zeros((2, 2)), 0.0,
])
def test_a_ball_center_must_be_a_finite_vector(center):
    with pytest.raises(DomainError, match="ball center must be a finite 1-D vector"):
        euclidean_ball(center, 1.0)


def test_simple_term_validation_and_values():
    assert SimpleTerm(kind="zero").value(np.array([1.0, 2.0])) == 0.0
    assert SimpleTerm(kind="l1", lam=0.5).value(np.array([1.0, -2.0])) == 1.5
    assert SimpleTerm(kind="indicator").value(np.array([0.5, 0.5])) == 0.0
    with pytest.raises(DomainError):
        SimpleTerm(kind="l2")
    with pytest.raises(DomainError):
        SimpleTerm(kind="l1", lam=-1.0)
