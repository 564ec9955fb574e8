"""First-order oracles: exact value/gradient access with call counting,
stochastic gradients with bounded variance, mini-batch averaging, and the
finite-difference validation gradient used by the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, _checked
from .prox_geometry import _FLOAT64, SimpleTerm


@dataclass
class EvalCounter:
    """Cumulative oracle call counts for one solver run."""

    f_calls: int = 0
    grad_calls: int = 0
    stochastic_grad_calls: int = 0


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = value + 1/2 <x - center, hessian(x - center)>, so grad f(x) =
    hessian(x - center); hessian is a Hessian-vector-product callable."""

    hessian: callable
    center: np.ndarray
    value: float


@dataclass(frozen=True)
class LinearImage:
    """f(x) = psi(z(x)) with z an affine map, so that a solver can keep the
    image z of each iterate and form the images of combinations of iterates
    without a matrix product.

    forward(x) is z(x); adjoint(w) applies the adjoint of z's linear part, so
    grad f(x) = adjoint(psi_grad(z(x))).  psi_bregman(z, dz), when given, is
    the Bregman term psi(z + dz) - psi(z) - <psi_grad(z), dz>, computed
    directly rather than as that difference, so it keeps its relative accuracy
    as dz -> 0; None means no such closed form exists, and a solver then checks
    descent with the difference of f values.

    quadratic, when psi is quadratic, is the same f as a QuadraticForm.  Then
    grad f is affine, and a solver keeps grad f of each iterate instead of its
    image: the gradient at a combination of iterates is the same combination
    of their gradients, and a new point costs one Hessian product.
    """

    forward: callable
    adjoint: callable
    psi: callable
    psi_grad: callable
    psi_bregman: callable | None = None
    quadratic: QuadraticForm | None = None


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic gradient model: "none", "gaussian" (a draw's variance D is
    the solver's, ``SolverConfig.D``), or "finite_sum" (components is a
    nonempty sequence of per-component gradient callables averaging to grad f:
    a list or tuple, or an object with len and indexing that makes them on
    demand)."""

    kind: str = "none"
    components: tuple = ()

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "finite_sum"):
            raise ConfigError(f"unknown noise model {self.kind!r}")
        if self.kind != "finite_sum":
            return
        components = self.components
        if isinstance(components, (list, tuple)):
            sequence = all(map(callable, components))
        else:  # one that makes its callables on demand is taken on its len and indexing
            sequence = (not isinstance(components, (str, bytes))
                        and hasattr(components, "__len__") and hasattr(components, "__getitem__"))
        if not sequence or len(components) == 0:
            raise ConfigError("finite_sum noise model needs components, a nonempty sequence "
                              f"of callables, got {components!r}")


@dataclass
class CompositeObjective:
    """F = f + h with f accessed through value/grad oracles and h simple.

    known_optimum, when present, is (x_star, F_star); x_star may be None for
    problems where only the optimal value was precomputed.  smoothness_meta
    carries whatever constants are known: keys among "L", "mu", "L_nu", "nu".
    linear, when present, describes the same f as psi(z(x)); the solvers then
    run on cached images and call neither smooth_value nor smooth_grad.
    Without it they call those oracles as they are when the run starts.
    noise_model is how the stochastic mode draws gradients, which it needs;
    the other modes ignore it.
    """

    smooth_value: callable
    smooth_grad: callable
    h: SimpleTerm = field(default_factory=SimpleTerm)
    known_optimum: tuple | None = None
    smoothness_meta: dict | None = None
    linear: LinearImage | None = None
    noise_model: NoiseModel | None = None

    def composite_value(self, x: np.ndarray) -> float:
        """F(x) = f(x) + h(x), uncounted.  For callers that grade a point after
        a run; the solvers' observer reads the f values the method computed."""
        return float(self.smooth_value(x)) + self.h.value(x)


def _checked_value(out, counter: EvalCounter | None) -> float:
    out = float(out)
    if not math.isfinite(out):
        raise DomainError("objective value is not finite at the queried point")
    if counter is not None:
        counter.f_calls += 1
    return out


def _checked_grad(g, counter: EvalCounter | None) -> np.ndarray:
    if g.__class__ is not np.ndarray or g.dtype is not _FLOAT64:  # float64 arrays pass as they are
        g = np.asarray(g, dtype=float)
    if not np.isfinite(g).all():
        raise DomainError("gradient is not finite at the queried point")
    if counter is not None:
        counter.grad_calls += 1
    return g


def value(obj: CompositeObjective, x: np.ndarray, counter: EvalCounter | None = None) -> float:
    """f(x), counted."""
    return _checked_value(obj.smooth_value(x), counter)


def grad(obj: CompositeObjective, x: np.ndarray, counter: EvalCounter | None = None) -> np.ndarray:
    """grad f(x), counted."""
    return _checked_grad(obj.smooth_grad(x), counter)


class TrialStreams:
    """The trial streams of one run: a Philox keyed once from SeedSequence(seed).

    Philox is counter-based, so each trial's stream is a position of the one
    keyed generator rather than a generator of its own: ``at(k, j)`` sets the
    counter to (0, 0, j, k), drops any buffered output and returns the
    generator, at a fraction of the cost of keying a new Philox through a
    SeedSequence.  A run owns its TrialStreams; nothing is shared between runs
    or threads.
    """

    __slots__ = ("seed", "_generator", "_state")

    def __init__(self, seed: int):
        self.seed = int(_checked("seed", seed, 0, integer=True))
        self._generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))
        # a freshly keyed state: counter 0, no buffered output, no spare 32-bit half
        self._state = self._generator.bit_generator.state

    def at(self, iteration: int, draw_index: int) -> np.random.Generator:
        self._state["state"]["counter"] = np.array((0, 0, draw_index, iteration), dtype=np.uint64)
        self._generator.bit_generator.state = self._state
        return self._generator


def substream(seed: int, iteration: int, draw_index: int,
              streams: TrialStreams | None = None) -> np.random.Generator:
    """The stream of trial (iteration, draw_index) of a run keyed by seed.

    It is Philox keyed from SeedSequence(seed), at the counter block that starts
    at (0, 0, draw_index, iteration): bit-reproducible, and disjoint across the
    iterations and backtracking trials of one run.  Without ``streams`` this is
    a fresh generator.  With a run's TrialStreams for the same seed, that run's
    generator is re-positioned instead and returned, with the same bits.
    """
    if streams is None or streams.seed != seed:
        streams = TrialStreams(seed)
    return streams.at(iteration, draw_index)


def minibatch_gradient(objective: CompositeObjective, x: np.ndarray, m: int,
                       rng: np.random.Generator, counter: EvalCounter | None = None,
                       exact_grad: np.ndarray | None = None,
                       D: float | None = None) -> np.ndarray:
    """Mean of m independent draws from the objective's noise model;
    stochastic counter += m.

    Under the gaussian model, with D the variance bound (a finite D >= 0,
    required), the mean of m iid N(0, (D/n) I) draws is N(0, (D/(n m)) I), so
    the batch mean is drawn directly from that law in O(n) whatever m is.
    Under finite_sum m component indices are drawn and the picked components
    are averaged.  Either way m = 1 reproduces a single draw bit-for-bit, and
    the counter charges m oracle calls.  The gaussian and none models centre
    the draw on exact_grad when the caller already holds grad f(x).
    """
    _checked("m", m, 1, integer=True)
    noise = objective.noise_model
    if exact_grad is None and noise.kind != "finite_sum":
        exact_grad = np.asarray(objective.smooth_grad(x), dtype=float)
    if noise.kind == "gaussian":
        if _checked("D", D, 0) == 0.0:
            batch_mean = exact_grad
        else:
            # per-coordinate variance D/n per draw, so E||noise||_2^2 = D for one draw
            batch_mean = exact_grad + rng.standard_normal(x.size) * np.sqrt(D / (x.size * m))
    elif noise.kind == "finite_sum":
        idx = rng.integers(len(noise.components), size=m)
        draws = np.stack([np.asarray(noise.components[int(i)](x), dtype=float) for i in idx])
        # the mean sums from +0.0, which would flip a lone -0.0, so m = 1 returns its draw as is
        batch_mean = draws[0] if m == 1 else draws.mean(axis=0)
    else:
        batch_mean = exact_grad
    if counter is not None:
        counter.stochastic_grad_calls += int(m)
    return batch_mean


def finite_difference_gradient(obj: CompositeObjective, x: np.ndarray, step: float) -> np.ndarray:
    """Central differences per coordinate (validation oracle, uncounted).

    The points x +- step*e_i are written into one probe copy of x in turn,
    which saves two array operations per coordinate at construction time."""
    _checked("step", step, 0, above=True)
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    probe = x.copy()
    for i in range(x.size):
        probe[i] = x[i] + step
        up = obj.smooth_value(probe)
        probe[i] = x[i] - step
        down = obj.smooth_value(probe)
        probe[i] = x[i]
        out[i] = (up - down) / (2.0 * step)
    return out


__all__ = [
    "EvalCounter", "QuadraticForm", "LinearImage", "CompositeObjective", "value", "grad",
    "NoiseModel", "TrialStreams", "substream",
    "minibatch_gradient", "finite_difference_gradient",
]
