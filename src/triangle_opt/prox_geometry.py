"""Prox-function geometry: the primal norm, feasible sets, Bregman divergences,
and the canonical estimate function with its closed-form composite prox step.

Two geometries are supported: euclidean, d(x) = 1/2 ||x - y0||_2^2 over free
space, boxes, euclidean balls, or the simplex; and entropy, d(x) = sum_i x_i
ln x_i + ln n over the simplex with the uniform point as center.  Estimate
functions are kept in the canonical form

    phi(x) = d_scale * d(x) + <linear, x> + h_scale * h(x) + constant

so that folding in a new linearization is O(n) and the prox step is a single
closed-form solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, UnsupportedGeometry

_LOG_FLOOR = 1e-300  # clamp before logs on the simplex
_FLOAT64 = np.dtype(np.float64)


def two_norm(v: np.ndarray) -> float:
    """||v||_2 as np.linalg.norm computes it for float64 or integer input (ravel,
    dot, sqrt): the same bits without its dispatch.  Unraveled, a strided view
    would round differently; a contiguous float64 vector needs no conversion."""
    if v.__class__ is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1 and v.flags.c_contiguous:
        return math.sqrt(v.dot(v))
    r = np.asarray(v, dtype=float).ravel(order="K")
    return math.sqrt(r.dot(r))


@dataclass(frozen=True)
class FeasibleSet:
    """Constraint set Q. kind is one of free_space, box, simplex, euclidean_ball."""

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    ball_center: np.ndarray | None = None
    radius: float | None = None


def free_space() -> FeasibleSet:
    return FeasibleSet(kind="free_space")


def box(lower, upper) -> FeasibleSet:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    # NaN fails lower <= upper; infinite bounds stay allowed unless the box is empty
    if lower.shape != upper.shape or not np.all(lower <= upper):
        raise DomainError("box bounds must satisfy lower <= upper componentwise, with no NaN")
    if np.any(lower == math.inf) or np.any(upper == -math.inf):
        raise DomainError("box is empty: a lower bound is +inf or an upper bound is -inf")
    return FeasibleSet(kind="box", lower=lower, upper=upper)


def simplex() -> FeasibleSet:
    return FeasibleSet(kind="simplex")


def euclidean_ball(center, radius: float) -> FeasibleSet:
    if not 0 < radius < math.inf:
        raise DomainError(f"ball radius must be positive and finite, got {radius!r}")
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or not np.all(np.isfinite(center)):
        raise DomainError(f"ball center must be a finite 1-D vector, got {center.tolist()!r}")
    return FeasibleSet(kind="euclidean_ball", ball_center=center, radius=float(radius))


@dataclass(frozen=True)
class ProxSetup:
    """A prox geometry: the primal norm, center y0, prox-function d, and
    feasible set Q.

    d is 1-strongly convex in the primal norm with d(center) = 0; omega_tilde
    >= 1 is the user-supplied constant comparing V to the squared norm (1 by
    default), and a run's strong convexity constant is
    mu~ = mu/omega_tilde.  The norm follows from the geometry: ||.||_2 for
    euclidean, ||.||_1 for entropy.
    """

    geometry: str  # "euclidean" or "entropy"
    center: np.ndarray
    feasible_set: FeasibleSet
    omega_tilde: float = 1.0

    def __post_init__(self):
        if self.geometry not in ("euclidean", "entropy"):
            raise DomainError(f"unknown geometry {self.geometry!r}; known: euclidean, entropy")
        if not math.isfinite(self.omega_tilde):
            raise DomainError(f"omega_tilde must be finite, got {self.omega_tilde!r}")
        if self.omega_tilde < 1.0:
            raise DomainError("omega_tilde must be >= 1")

    def norm(self, v: np.ndarray):
        """||v|| in the primal norm of a point, as a float; of a block of points
        (a 2-D array, a point a row), the array of its rows' norms, each with
        its point's bits."""
        if self.geometry != "euclidean":
            return _per_row(np.abs(v).sum(axis=-1))
        if v.__class__ is np.ndarray and v.ndim == 2:
            return np.sqrt(_dot(v, v))
        return two_norm(v)

    def d_value(self, x: np.ndarray):
        """d(x) of a point, or of each row of a block (see ``norm``)."""
        if self.geometry == "euclidean":
            diff = x - self.center
            return 0.5 * _dot(diff, diff)
        return _per_row(_xlogx(x).sum(axis=-1) + np.log(x.shape[-1]))

    def d_grad(self, x: np.ndarray) -> np.ndarray:
        if self.geometry == "euclidean":
            return x - self.center
        if np.any(x <= 0.0):
            raise DomainError("entropy gradient undefined at a boundary point")
        return np.log(x) + 1.0


def _dot(a: np.ndarray, b: np.ndarray):
    """<a, b> of two points, as a float, or of each pair of rows of two blocks:
    a stack of (1, n) @ (n, 1) products calls the BLAS dot that ndarray.dot
    calls, so a row has its point's bits (einsum and a summed product do not)."""
    if a.ndim == 1:
        return float(a.dot(b))
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _per_row(value):
    """A block's array of row values as it is; a point's value as a float."""
    return value if value.__class__ is np.ndarray else float(value)


def _xlogx(x: np.ndarray) -> np.ndarray:
    safe = np.maximum(x, _LOG_FLOOR)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def euclidean_setup(center, feasible_set: FeasibleSet | None = None,
                    omega_tilde: float = 1.0) -> ProxSetup:
    fs = feasible_set if feasible_set is not None else free_space()
    return ProxSetup(geometry="euclidean", center=np.asarray(center, dtype=float),
                     feasible_set=fs, omega_tilde=float(omega_tilde))


def entropy_setup(dimension: int, omega_tilde: float = 1.0) -> ProxSetup:
    if dimension < 2:
        raise DomainError("entropy setup needs dimension >= 2")
    return ProxSetup(geometry="entropy", center=np.full(dimension, 1.0 / dimension),
                     feasible_set=simplex(), omega_tilde=float(omega_tilde))


def bregman_divergence(setup: ProxSetup, x: np.ndarray, z: np.ndarray) -> float:
    """V(x, z) = d(x) - d(z) - <grad d(z), x - z>, nonnegative for feasible points."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    gz = setup.d_grad(z)  # DomainError on the entropy boundary
    return float(setup.d_value(x) - setup.d_value(z) - np.dot(gz, x - z))


@dataclass
class SimpleTerm:
    """The simple composite term h: zero, lam * ||x||_1, or the indicator of Q."""

    kind: str = "zero"  # "zero", "l1", "indicator"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "l1", "indicator"):
            raise DomainError(f"unknown composite term kind {self.kind!r}")
        if self.kind == "l1" and not 0 <= self.lam < math.inf:
            raise DomainError(f"l1 weight must be nonnegative and finite, got {self.lam!r}")

    def value(self, x: np.ndarray):
        """h(x) of a point, or of each row of a block (see ProxSetup.norm)."""
        if self.kind == "l1":
            return self.lam * _per_row(np.abs(x).sum(axis=-1))
        # zero, or indicator evaluated at a feasible point
        return 0.0


@dataclass
class EstimateFunction:
    """Canonical accumulated lower model d_scale*d(x) + <linear,x> + h_scale*h(x) + constant."""

    d_scale: float
    linear: np.ndarray
    h_scale: float
    constant: float


def initial_estimate(setup: ProxSetup) -> EstimateFunction:
    """V(x, y0) in canonical form: the d_scale=1 base before any folds."""
    g0 = setup.d_grad(setup.center)
    const = -setup.d_value(setup.center) + float(np.dot(g0, setup.center))
    return EstimateFunction(d_scale=1.0, linear=-g0, h_scale=0.0, constant=const)


def estimate_value(setup: ProxSetup, phi: EstimateFunction, h: SimpleTerm, x: np.ndarray):
    """phi(x) of a point, as a float.  Given a block of points (a 2-D array)
    and a phi whose fields hold one estimate function per row (scale and
    constant arrays, linear a 2-D array), the array of each row's value,
    with the bits its row gives alone."""
    return _per_row(phi.d_scale * setup.d_value(x) + _dot(phi.linear, x)
                    + phi.h_scale * h.value(x) + phi.constant)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorting construction)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _project_ball(v: np.ndarray, center: np.ndarray, radius: float) -> np.ndarray:
    diff = v - center
    nrm = float(np.linalg.norm(diff))
    if nrm <= radius:
        return v
    return center + diff * (radius / nrm)


def composite_prox_solve(setup: ProxSetup, phi: EstimateFunction, h: SimpleTerm) -> np.ndarray:
    """argmin over Q of d_scale*d(x) + <linear, x> + h_scale*h(x), in closed form.

    Raises UnsupportedGeometry when the (geometry, feasible set, h) combination
    has no implemented solver.
    """
    if phi.d_scale <= 0:
        raise DomainError("estimate function must keep d_scale > 0")
    fs = setup.feasible_set

    if setup.geometry == "entropy":
        if fs.kind != "simplex":
            raise UnsupportedGeometry("entropy prox is defined on the simplex only")
        # h = l1 is constant (= lam) on the simplex, so every supported h
        # reduces to the plain entropy-linear solve: x_i ~ exp(-linear_i/d_scale).
        w = -phi.linear / phi.d_scale
        w -= w.max()
        ex = np.exp(w)
        return ex / ex.sum()

    # euclidean: unconstrained smooth minimizer is center - linear/d_scale
    v = setup.center - phi.linear / phi.d_scale
    if h.kind == "l1" and phi.h_scale > 0.0 and h.lam > 0.0:
        if fs.kind in ("free_space", "box"):
            v = soft_threshold(v, phi.h_scale * h.lam / phi.d_scale)
        elif fs.kind == "simplex":
            pass  # ||x||_1 = 1 on the simplex: constant shift, same minimizer
        else:
            raise UnsupportedGeometry(f"l1 composite prox on {fs.kind!r} is not implemented")
    if fs.kind == "free_space":
        return v
    if fs.kind == "box":
        # 1-D convex pieces: clipping the componentwise minimizer is exact
        return np.clip(v, fs.lower, fs.upper)
    if fs.kind == "simplex":
        return project_to_simplex(v)
    if fs.kind == "euclidean_ball":
        return _project_ball(v, fs.ball_center, fs.radius)
    raise UnsupportedGeometry(f"no euclidean prox for feasible set {fs.kind!r}")


def recenter(setup: ProxSetup, new_center) -> ProxSetup:
    """Same geometry and feasible set with the prox-function centered at new_center."""
    if setup.geometry != "euclidean":
        raise UnsupportedGeometry("only the euclidean prox-function can be re-centered")
    new_center = np.asarray(new_center, dtype=float)
    if new_center.shape != setup.center.shape:
        raise DomainError("new center has wrong shape")
    return replace(setup, center=new_center)


__all__ = [
    "FeasibleSet", "free_space", "box", "simplex", "euclidean_ball",
    "ProxSetup", "euclidean_setup", "entropy_setup", "bregman_divergence",
    "SimpleTerm", "EstimateFunction", "initial_estimate",
    "estimate_value", "soft_threshold", "project_to_simplex", "composite_prox_solve",
    "recenter",
]
