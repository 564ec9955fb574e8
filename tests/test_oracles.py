"""Unit tests for the first-order oracles: exact access with counting,
stochastic draws, mini-batching, and the finite-difference validation gradient."""

import math

import numpy as np
import pytest

from triangle_opt import (
    CompositeObjective,
    ConfigError,
    DomainError,
    EvalCounter,
    NoiseModel,
    SimpleTerm,
    StochasticGradientOracle,
    TrialStreams,
    finite_difference_gradient,
    grad,
    minibatch_gradient,
    substream,
    value,
)


def quadratic_objective():
    return CompositeObjective(smooth_value=lambda x: 0.5 * float(np.dot(x, x)),
                              smooth_grad=lambda x: np.asarray(x, dtype=float))


def test_value_and_grad_examples():
    obj = quadratic_objective()
    counter = EvalCounter()
    x = np.array([3.0, 4.0])
    assert value(obj, x, counter) == 12.5
    np.testing.assert_allclose(grad(obj, x, counter), [3.0, 4.0])
    assert counter.f_calls == 1 and counter.grad_calls == 1

    p = 1.5
    holder = CompositeObjective(
        smooth_value=lambda x: float(np.linalg.norm(x) ** p) / p,
        smooth_grad=lambda x: (np.zeros_like(x) if np.linalg.norm(x) == 0.0
                               else float(np.linalg.norm(x)) ** (p - 2.0) * np.asarray(x)))
    zero = np.zeros(3)
    assert value(holder, zero) == 0.0
    np.testing.assert_allclose(grad(holder, zero), zero)

    h = SimpleTerm(kind="l1", lam=0.5)
    assert h.value(np.array([1.0, -2.0])) == 1.5


def test_value_rejects_nonfinite():
    bad = CompositeObjective(smooth_value=lambda x: float("inf"),
                             smooth_grad=lambda x: np.full_like(x, np.nan))
    with pytest.raises(DomainError):
        value(bad, np.zeros(2))
    with pytest.raises(DomainError):
        grad(bad, np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lone_nonfinite_value_or_gradient_entry_is_rejected(bad):
    x = np.zeros(4)
    ok_grad = lambda x: np.ones(4)
    for f_out in (float(bad), np.float64(bad)):
        obj = CompositeObjective(smooth_value=lambda x: f_out, smooth_grad=ok_grad)
        with pytest.raises(DomainError, match="objective value is not finite"):
            value(obj, x)
    for position in range(x.size):
        g_out = np.ones(4)
        g_out[position] = bad
        obj = CompositeObjective(smooth_value=lambda x: 0.0, smooth_grad=lambda x: g_out)
        with pytest.raises(DomainError, match="gradient is not finite"):
            grad(obj, x)


def test_composite_value_is_uncounted():
    obj = CompositeObjective(smooth_value=lambda x: 0.0,
                             smooth_grad=lambda x: np.zeros_like(x),
                             h=SimpleTerm(kind="l1", lam=1.0))
    assert obj.composite_value(np.array([2.0, -3.0])) == 5.0


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(kind="poisson")
    with pytest.raises(ConfigError):
        NoiseModel(kind="finite_sum", components=())
    with pytest.raises(ConfigError):
        StochasticGradientOracle(base=quadratic_objective(),
                                 noise_model=NoiseModel(kind="gaussian"))
    with pytest.raises(ConfigError):
        StochasticGradientOracle(base=quadratic_objective(), variance_bound=-1.0)
    for bound in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            StochasticGradientOracle(base=quadratic_objective(), variance_bound=bound)


def test_substream_reproducible_and_keyed():
    a = substream(3, 5, 2).standard_normal(4)
    b = substream(3, 5, 2).standard_normal(4)
    c = substream(3, 5, 3).standard_normal(4)
    d = substream(3, 6, 2).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_substreams_differ_across_trials_and_seeds():
    draws = {(seed, k, j): substream(seed, k, j).standard_normal(4).tobytes()
             for seed in (0, 1, 7) for k in range(4) for j in range(3)}
    assert len(set(draws.values())) == len(draws)


def test_substream_is_philox_keyed_from_the_seed_at_counter_0_0_j_k():
    keyed = np.random.Philox(np.random.SeedSequence(3), counter=[0, 0, 2, 5])
    np.testing.assert_array_equal(substream(3, 5, 2).standard_normal(4),
                                  np.random.Generator(keyed).standard_normal(4))


def test_a_repositioned_run_stream_gives_the_fresh_substream_bits():
    streams = TrialStreams(5)
    # out of order, with 32-bit draws that leave a spare half buffered
    for k, j in ((1, 0), (1, 1), (0, 0), (3, 2), (1, 0), (2, 7)):
        fresh = substream(5, k, j)
        reused = substream(5, k, j, streams)
        assert reused.integers(10, size=3).tolist() == fresh.integers(10, size=3).tolist()
        assert reused.standard_normal(5).tobytes() == fresh.standard_normal(5).tobytes()
        assert reused.integers(2**40, size=2).tolist() == fresh.integers(2**40, size=2).tolist()
    # streams keyed from another seed are not used for this one
    np.testing.assert_array_equal(substream(6, 2, 1, streams).standard_normal(4),
                                  substream(6, 2, 1).standard_normal(4))


def test_single_draw_degenerate_oracles_are_exact():
    obj = quadratic_objective()
    x = np.array([1.0, -2.0, 0.5])
    none_oracle = StochasticGradientOracle(base=obj)
    zero_var = StochasticGradientOracle(base=obj, noise_model=NoiseModel(kind="gaussian"),
                                        variance_bound=0.0)
    counter = EvalCounter()
    for oracle in (none_oracle, zero_var):
        np.testing.assert_array_equal(minibatch_gradient(oracle, x, 1, substream(0, 0, 0), counter), x)
    assert counter.stochastic_grad_calls == 2


def test_gaussian_noise_norm_squared_matches_D():
    obj = quadratic_objective()
    oracle = StochasticGradientOracle(base=obj, noise_model=NoiseModel(kind="gaussian"),
                                      variance_bound=4.0)
    x = np.zeros(2)
    rng = substream(7, 0, 0)
    n_draws = 100000
    total = 0.0
    mean = np.zeros(2)
    for _ in range(n_draws):
        noise = minibatch_gradient(oracle, x, 1, rng) - x
        total += float(np.dot(noise, noise))
        mean += noise
    assert 3.8 <= total / n_draws <= 4.2
    # unbiasedness: empirical mean within 4*sqrt(D/n_draws) per coordinate norm
    assert np.linalg.norm(mean / n_draws) <= 4.0 * np.sqrt(4.0 / n_draws)


def test_minibatch_m1_equals_single_draw():
    obj = quadratic_objective()
    oracle = StochasticGradientOracle(base=obj, noise_model=NoiseModel(kind="gaussian"),
                                      variance_bound=2.0)
    x = np.array([0.3, -0.7, 1.1])
    single = obj.smooth_grad(x) + substream(5, 1, 0).standard_normal(x.size) * np.sqrt(2.0 / x.size)
    batched = minibatch_gradient(oracle, x, 1, substream(5, 1, 0))
    assert batched.tobytes() == single.tobytes()


@pytest.mark.parametrize("kind", ["gaussian", "none"])
def test_minibatch_centred_on_a_given_exact_gradient_draws_the_same_bits(kind):
    obj = quadratic_objective()
    oracle = StochasticGradientOracle(base=obj, noise_model=NoiseModel(kind=kind),
                                      variance_bound=2.0)
    x = np.array([0.3, -0.7, 1.1])
    counter = EvalCounter()
    given = minibatch_gradient(oracle, x, 5, substream(2, 3, 1), counter,
                               exact_grad=obj.smooth_grad(x))
    np.testing.assert_array_equal(given, minibatch_gradient(oracle, x, 5, substream(2, 3, 1)))
    assert counter.stochastic_grad_calls == 5 and counter.grad_calls == 0


def test_minibatch_noiseless_and_counter():
    obj = quadratic_objective()
    oracle = StochasticGradientOracle(base=obj)
    x = np.array([2.0, -1.0])
    counter = EvalCounter()
    out = minibatch_gradient(oracle, x, 7, substream(0, 0, 0), counter)
    np.testing.assert_array_equal(out, x)
    assert counter.stochastic_grad_calls == 7
    with pytest.raises(ConfigError):
        minibatch_gradient(oracle, x, 0, substream(0, 0, 0))


def test_minibatch_variance_reduction():
    obj = quadratic_objective()
    d_var = 3.0
    oracle = StochasticGradientOracle(base=obj, noise_model=NoiseModel(kind="gaussian"),
                                      variance_bound=d_var)
    x = np.zeros(4)
    m = 100
    reps = 1000
    total = 0.0
    for r in range(reps):
        mean_grad = minibatch_gradient(oracle, x, m, substream(11, r, 0))
        total += float(np.dot(mean_grad, mean_grad))
    empirical = total / reps
    assert 0.8 * d_var / m <= empirical <= 1.2 * d_var / m


def test_finite_sum_components_average_to_gradient():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((3, 3)) for _ in range(5)]
    mats = [0.5 * (m + m.T) for m in mats]
    mean_mat = sum(mats) / len(mats)
    obj = CompositeObjective(smooth_value=lambda x: 0.5 * float(x @ mean_mat @ x),
                             smooth_grad=lambda x: mean_mat @ x)
    components = tuple((lambda x, m=m: m @ x) for m in mats)
    oracle = StochasticGradientOracle(base=obj,
                                      noise_model=NoiseModel(kind="finite_sum",
                                                             components=components))
    x = rng.standard_normal(3)
    avg = sum(c(x) for c in components) / len(components)
    np.testing.assert_allclose(avg, grad(obj, x), atol=1e-10)
    draw = minibatch_gradient(oracle, x, 1, substream(0, 0, 0))
    assert any(np.allclose(draw, m @ x) for m in mats)


def test_gaussian_minibatch_costs_o_n_whatever_m():
    oracle = StochasticGradientOracle(base=quadratic_objective(),
                                      noise_model=NoiseModel(kind="gaussian"),
                                      variance_bound=1.0)
    x = np.array([1.0, -2.0, 0.5])
    counter = EvalCounter()
    out = minibatch_gradient(oracle, x, 10**12, substream(0, 0, 0), counter)
    assert out.shape == x.shape
    assert counter.stochastic_grad_calls == 10**12


def finite_sum_oracle():
    rng = np.random.default_rng(4)
    vecs = [rng.standard_normal(3) for _ in range(5)]
    vecs[0][1] = -0.0  # a signed zero that a bit-for-bit comparison must keep
    oracle = StochasticGradientOracle(
        base=quadratic_objective(),
        noise_model=NoiseModel(kind="finite_sum",
                               components=tuple((lambda x, v=v: v * np.asarray(x, dtype=float))
                                                for v in vecs)))
    return oracle, vecs


def test_finite_sum_minibatch_is_mean_of_picked_components():
    oracle, vecs = finite_sum_oracle()
    x = np.array([0.4, 1.3, -0.8])
    m = 50
    for k in range(5):
        counter = EvalCounter()
        out = minibatch_gradient(oracle, x, m, substream(2, k, 1), counter)
        picked = substream(2, k, 1).integers(len(vecs), size=m)
        np.testing.assert_allclose(out, np.mean([vecs[i] * x for i in picked], axis=0),
                                   rtol=1e-12, atol=1e-15)
        assert counter.stochastic_grad_calls == m


def test_finite_sum_single_draw_is_one_component_bit_for_bit():
    oracle, vecs = finite_sum_oracle()
    x = np.array([0.4, 1.3, -0.8])
    for k in range(20):
        batched = minibatch_gradient(oracle, x, 1, substream(1, k, 0))
        component = vecs[substream(1, k, 0).integers(len(vecs))] * x
        assert batched.tobytes() == component.tobytes()


class ManyComponents:
    """N identical components, built on demand; records which ones are called."""

    def __init__(self, n):
        self.n = n
        self.called = []

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        self.called.append(i)
        return lambda x: 2.0 * np.asarray(x, dtype=float)


def test_finite_sum_single_draw_cost_does_not_grow_with_n():
    # A pass over all N components (or an N-long count array) could not run at N = 10**12.
    components = ManyComponents(10**12)
    oracle = StochasticGradientOracle(base=quadratic_objective(),
                                      noise_model=NoiseModel(kind="finite_sum",
                                                             components=components))
    x = np.array([1.0, -2.0, 0.5])
    out = minibatch_gradient(oracle, x, 1, substream(3, 0, 0))
    np.testing.assert_array_equal(out, 2.0 * x)
    assert components.called == [substream(3, 0, 0).integers(10**12)]


def test_finite_difference_examples():
    obj = quadratic_objective()
    x = np.array([1.0, -1.0])
    fd = finite_difference_gradient(obj, x, step=1e-5)
    np.testing.assert_allclose(fd, [1.0, -1.0], atol=1e-8)

    const = CompositeObjective(smooth_value=lambda x: 3.0,
                               smooth_grad=lambda x: np.zeros_like(x))
    np.testing.assert_allclose(finite_difference_gradient(const, x, 1e-4), [0.0, 0.0])

    c = np.array([2.0, -0.5])
    linear = CompositeObjective(smooth_value=lambda x: float(np.dot(c, x)),
                                smooth_grad=lambda x: c.copy())
    np.testing.assert_allclose(finite_difference_gradient(linear, x, 1e-3), c, rtol=1e-10)

    with pytest.raises(ConfigError):
        finite_difference_gradient(obj, x, step=0.0)

