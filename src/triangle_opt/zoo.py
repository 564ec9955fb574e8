"""Benchmark problem zoo.

Five seeded problem families used by the tests, the demos, and the CLI.  The
table ``_KINDS`` is the one place that says what a kind is: its builder, its
default dimension, its options with their defaults, and its description,
which ``zoo describe`` prints with an options line generated from the table.

Every constructed instance is finite-difference checked (value against
gradient) before it is returned.  The quadratic, lasso and logistic kinds are
f(x) = psi(z(x)) with z affine: they carry that ``LinearImage``, from which
their value and gradient oracles are built, and which is checked at
construction for its Bregman term and for its adjoint.  The quadratic and the
lasso also carry f as a ``QuadraticForm`` (Hessian product, center, value),
which is checked against the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, _checked
from .oracles import (CompositeObjective, LinearImage, QuadraticForm,
                      finite_difference_gradient, grad)
from .prox_geometry import (ProxSetup, SimpleTerm, box, entropy_setup,
                            euclidean_setup, free_space, two_norm)

__all__ = ["DESCRIPTIONS", "ZOO_KINDS", "ProblemSpec", "ZooProblem", "make_problem"]


@dataclass(frozen=True)
class ProblemSpec:
    """A zoo instance's kind, dimension and seed, checked on construction: the
    kind must be known, the dimension (None: the kind's default) an integer
    >= 1 and the seed an integer >= 0."""

    kind: str
    dimension: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ZOO_KINDS:
            raise ConfigError(f"unknown problem kind {self.kind!r}; known: {', '.join(ZOO_KINDS)}")
        if self.dimension is None:
            object.__setattr__(self, "dimension", _KINDS[self.kind].dimension)
        _checked("dimension", self.dimension, 1, integer=True)
        _checked("seed", self.seed, 0, integer=True)


@dataclass
class ZooProblem:
    spec: ProblemSpec
    objective: CompositeObjective
    setup: ProxSetup
    data: dict


def _fd_consistency_check(objective: CompositeObjective, points) -> None:
    """Construction-time guard: central differences must match the gradient."""
    for x in points:
        g = grad(objective, x)
        fd = finite_difference_gradient(objective, x, step=1e-6)
        scale = max(1.0, float(np.linalg.norm(g)))
        err = float(np.linalg.norm(fd - g)) / scale
        if err > 1e-4:
            raise DomainError(f"value/grad oracles disagree: finite-difference error {err:.3e}")


def _imaged_objective(image: LinearImage, **fields) -> CompositeObjective:
    """The objective f(x) = psi(z(x)), with oracles built from its image."""
    return CompositeObjective(
        smooth_value=lambda x: image.psi(image.forward(x)),
        smooth_grad=lambda x: image.adjoint(image.psi_grad(image.forward(x))),
        linear=image, **fields)


def _image_consistency_check(objective: CompositeObjective, points) -> None:
    """Construction-time guard on the image, at O(1) matrix products: at each
    point value + 1/2 <x - c, hessian(x - c)> and hessian(x - c) of a
    quadratic form must equal psi(z(x)) and adjoint(psi_grad(z(x))) to 1e-12
    relative; between the two points psi_bregman must match the difference of
    psi values it stands for, and adjoint must pass a dot-product test against
    forward.  The value and gradient oracles are built from the image, so
    ``_fd_consistency_check`` is what holds psi_grad against psi."""
    image = objective.linear
    form = image.quadratic
    images = []
    for x in points:
        z = image.forward(x)
        f, w = image.psi(z), image.psi_grad(z)
        g = image.adjoint(w)
        if form is not None:
            dx = np.asarray(x, dtype=float) - form.center
            hv = form.hessian(dx)
            if two_norm(hv - g) > 1e-12 * two_norm(g):
                raise DomainError("quadratic form's Hessian product disagrees with the image")
            if abs(form.value + 0.5 * float(dx @ hv) - f) > 1e-12 * abs(f):
                raise DomainError("quadratic form's value disagrees with the image")
        images.append((z, f, w, g))
    (z0, f0, w0, g0), (z1, f1, _, _) = images[:2]
    dz = z1 - z0
    w0_dz = float(w0 @ dz)
    if abs(image.psi_bregman(z0, dz) - (f1 - f0 - w0_dz)) > 1e-8 * (abs(f1) + abs(f0) + abs(w0_dz)):
        raise DomainError("psi_bregman disagrees with the difference of psi values")
    dx = np.asarray(points[1], dtype=float) - np.asarray(points[0], dtype=float)
    if abs(w0_dz - float(dx @ g0)) > 1e-10 * two_norm(w0) * (two_norm(z0) + two_norm(z1)):
        raise DomainError("adjoint fails the dot-product test against forward")


def _normal_probes(dimension: int, seed: int) -> list:
    """Two standard normal points from the stream seed + 1, for the guards."""
    probe_rng = np.random.default_rng(seed + 1)
    return [probe_rng.standard_normal(dimension) for _ in range(2)]


# Each builder takes (dimension, seed, **options) and returns (objective,
# setup, data, probe points); make_problem runs the guards at the points.

def _quadratic(dimension: int, seed: int, lam_min: float, lam_max: float,
               x_star_norm: float, feasible: str) -> tuple:
    _checked("quadratic option lam_min", lam_min, 0, above=True)
    _checked("quadratic option lam_max", lam_max, lam_min)
    rng = np.random.default_rng(seed)
    if dimension == 1:
        q = np.ones((1, 1))
    else:
        q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    lam = np.linspace(lam_min, lam_max, dimension)
    direction = rng.standard_normal(dimension)
    x_star = x_star_norm * direction / np.linalg.norm(direction)

    # z = q (x - x*) keeps the value cancellation-free near the optimum
    h_matrix = q.T @ (lam[:, None] * q)
    image = LinearImage(forward=lambda x: q @ (x - x_star), adjoint=lambda w: q.T @ w,
                        psi=lambda z: 0.5 * float(z @ (lam * z)),
                        psi_grad=lambda z: lam * z,
                        psi_bregman=lambda z, dz: 0.5 * float(dz @ (lam * dz)),
                        quadratic=QuadraticForm(h_matrix.dot, x_star, 0.0))

    if feasible == "free_space":
        feas = free_space()
    elif feasible == "box":
        half_width = max(3.0, 1.5 * float(np.max(np.abs(x_star))))
        feas = box(-half_width * np.ones(dimension), half_width * np.ones(dimension))
    else:
        raise ConfigError(f"quadratic supports feasible in {{free_space, box}}, got {feasible!r}")
    setup = euclidean_setup(center=np.zeros(dimension), feasible_set=feas)
    objective = _imaged_objective(
        image, h=SimpleTerm(kind="zero"), known_optimum=(x_star, 0.0),
        smoothness_meta={"L": lam_max, "mu": lam_min})
    data = {"A_matrix": h_matrix, "b": h_matrix @ x_star, "spectrum": lam, "x_star": x_star}
    return objective, setup, data, _normal_probes(dimension, seed)


def _lasso(dimension: int, seed: int, lam: float) -> tuple:
    _checked("lasso option lam", lam, 0)
    rng = np.random.default_rng(seed)
    n_rows = 5 * dimension
    design = rng.standard_normal((n_rows, dimension))
    ground_truth = np.zeros(dimension)
    support = rng.choice(dimension, size=max(1, dimension // 3), replace=False)
    ground_truth[support] = rng.standard_normal(support.size)
    targets = design @ ground_truth + 0.1 * rng.standard_normal(n_rows)

    # f(x) = f(x_ls) + 1/2 <x - x_ls, X'X (x - x_ls)> about the least-squares
    # point x_ls, where the residual is orthogonal to the columns of X
    gram = design.T @ design
    x_ls = np.linalg.solve(gram, design.T @ targets)
    residual = design @ x_ls - targets
    image = LinearImage(forward=lambda x: design @ x - targets,
                        adjoint=lambda w: design.T @ w,
                        psi=lambda z: 0.5 * float(z @ z), psi_grad=lambda z: z,
                        psi_bregman=lambda z, dz: 0.5 * float(dz @ dz),
                        quadratic=QuadraticForm(gram.dot, x_ls,
                                                0.5 * float(residual @ residual)))

    gram_eigs = np.linalg.eigvalsh(gram)
    setup = euclidean_setup(center=np.zeros(dimension), feasible_set=free_space())
    optimum = _FROZEN_OPTIMA.get(("lasso", dimension, seed, lam))
    objective = _imaged_objective(
        image, h=SimpleTerm(kind="l1", lam=lam),
        known_optimum=optimum,
        smoothness_meta={"L": float(gram_eigs[-1]), "mu": float(max(gram_eigs[0], 0.0))})
    data = {"design": design, "targets": targets, "lam": lam}
    return objective, setup, data, _normal_probes(dimension, seed)


def _holder_norm_power(dimension: int, seed: int, p: float) -> tuple:
    nu = _checked("holder_norm_power option p", p, 1, maximum=2) - 1.0

    def f(x):
        return two_norm(x) ** p / p

    def df(x):
        x = np.asarray(x, dtype=float)
        nrm = two_norm(x)
        if nrm == 0.0:
            return np.zeros_like(x)
        return nrm ** (p - 2.0) * x

    setup = euclidean_setup(center=np.ones(dimension) / math.sqrt(dimension),
                            feasible_set=free_space())
    objective = CompositeObjective(
        smooth_value=f, smooth_grad=df, h=SimpleTerm(kind="zero"),
        known_optimum=(np.zeros(dimension), 0.0),
        smoothness_meta={"L_nu": 2.0 ** (1.0 - nu), "nu": nu})
    probes = [v / np.linalg.norm(v) for v in _normal_probes(dimension, seed)]
    return objective, setup, {"p": p}, probes


def _logistic(dimension: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    n_rows = 10 * dimension
    design = rng.standard_normal((n_rows, dimension))
    ground_truth = rng.standard_normal(dimension)
    labels = np.sign(design @ ground_truth)
    labels[labels == 0] = 1.0
    flip = rng.random(n_rows) < 0.2
    labels[flip] *= -1.0

    margin_sign = -labels  # t = -b z, the argument of the softplus s(t) = log(1 + e^t)
    grad_scale = margin_sign / n_rows

    def psi(z):
        # log(1 + exp(t)) without overflow for large |t|; sum / n is the bits of mean
        return float(np.logaddexp(0.0, margin_sign * z).sum()) / n_rows

    def psi_grad(z):
        return grad_scale / (1.0 + np.exp(labels * z))

    def psi_bregman(z, dz):
        # mean of the per-sample softplus Bregman terms s(t + dt) - s(t) - s'(t) dt
        # with t = -b z.  Up to |dt| = 30 the closed form
        # log1p(s' expm1(dt)) - s' dt has a relative rounding error of about
        # 2e-16 / ((1 - s') |dt|); below |dt| = 1e-8, where that would pass
        # 1e-8, the leading Taylor term s'' dt^2 / 2 is used, accurate to
        # |dt| / 3.  Past |dt| = 30 the closed form can overflow or take
        # log1p(-1), and the difference of softplus values, exact enough
        # there, is used
        slope = 1.0 / (1.0 + np.exp(labels * z))
        dt = margin_sign * dz
        largest = np.abs(dt).max(initial=0.0)
        if largest <= 1e-8:
            return float(((slope - slope * slope) * (dt * dt)).sum()) / (2 * n_rows)
        if largest <= 30.0:
            terms = np.log1p(slope * np.expm1(dt)) - slope * dt
        else:
            t = margin_sign * z
            terms = np.logaddexp(0.0, t + dt) - np.logaddexp(0.0, t) - slope * dt
        return float(terms.sum()) / n_rows

    image = LinearImage(forward=lambda x: design @ x,
                        adjoint=lambda w: design.T @ w, psi=psi, psi_grad=psi_grad,
                        psi_bregman=psi_bregman)

    gram_eigs = np.linalg.eigvalsh(design.T @ design)
    setup = euclidean_setup(center=np.zeros(dimension), feasible_set=free_space())
    optimum = _FROZEN_OPTIMA.get(("logistic", dimension, seed))
    objective = _imaged_objective(
        image, h=SimpleTerm(kind="zero"), known_optimum=optimum,
        smoothness_meta={"L": float(gram_eigs[-1]) / (4.0 * n_rows)})
    data = {"design": design, "labels": labels}
    return objective, setup, data, _normal_probes(dimension, seed)


def _simplex_linear(dimension: int, seed: int) -> tuple:
    _checked("dimension", dimension, 2, integer=True)
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.0, 1.0, dimension)
    best = int(np.argmin(costs))
    # make the least-cost vertex strictly unique so x* is well defined
    costs[best] = costs[best] - 0.1
    x_star = np.zeros(dimension)
    x_star[best] = 1.0

    def f(x):
        return float(costs.dot(x))

    def df(x):
        return costs.copy()

    setup = entropy_setup(dimension)
    objective = CompositeObjective(
        smooth_value=f, smooth_grad=df, h=SimpleTerm(kind="indicator"),
        known_optimum=(x_star, float(costs[best])),
        smoothness_meta={"L": 1.0})
    probe_rng = np.random.default_rng(seed + 1)
    probes = [probe_rng.dirichlet(np.ones(dimension)) for _ in range(2)]
    return objective, setup, {"costs": costs}, probes


# Optima for problems without a closed form, frozen from long reference runs
# (see demos/precompute_reference_optima.py); keyed by the instance parameters.
_FROZEN_OPTIMA: dict = {
    ("lasso", 12, 0, 0.5): (np.array([
        0.014784699437937849,
        0,
        0,
        1.1813281083945362,
        0,
        -0.018634390826801215,
        0.0038744886689041171,
        0.85294132157404767,
        -0.34124526460739707,
        0.0017137486078926004,
        0.00070379620533365342,
        -1.4154973673255449,
    ]), 2.2279763997908186),
    ("logistic", 8, 0): (np.array([
        -0.6805845239600139,
        -0.22615333621236289,
        -0.51226381671407717,
        -0.17230254948796442,
        -0.3718276860502856,
        -1.209974293263248,
        -0.02396864904687783,
        -0.27364127799159493,
    ]), 0.52457252080648231),
}


class _Kind(NamedTuple):
    build: Callable  # (dimension, seed, **options) -> (objective, setup, data, probes)
    dimension: int  # the default
    options: dict  # name -> default; a str default takes a str, any other a number
    description: str


_KINDS = {
    "quadratic": _Kind(_quadratic, 50, {"lam_min": 0.02, "lam_max": 1.0, "x_star_norm": 2.0,
                                        "feasible": "free_space"}, (
        "f(x) = 1/2 (x - x*)' H (x - x*), H = Q' diag(spectrum) Q from a seeded\n"
        "orthogonal basis; exact L = spectrum max, mu = spectrum min, F* = 0.\n"
        "feasible is free_space or box.  Optimum: analytic.")),
    "lasso": _Kind(_lasso, 12, {"lam": 0.5}, (
        "f(x) = 1/2 ||A x - y||^2, h(x) = lam ||x||_1, with A a seeded 5n-by-n\n"
        "design and y generated from a sparse ground truth plus noise.\n"
        "Optimum: frozen from a long reference run for the canonical instance,\n"
        "else unknown.")),
    "holder_norm_power": _Kind(_holder_norm_power, 5, {"p": 1.5}, (
        "f(x) = (1/p) ||x||_2^p with p = 1 + nu in [1, 2]; gradient is\n"
        "nu-Holder with L_nu = 2^(1-nu); x* = 0, F* = 0.  Optimum: analytic.")),
    "logistic": _Kind(_logistic, 8, {}, (
        "f(x) = mean_i log(1 + exp(-b_i <a_i, x>)) on seeded data with 20% of\n"
        "labels flipped (keeps the minimizer finite).  Optimum: frozen from a\n"
        "long reference run for the canonical instance, else unknown.")),
    "simplex_linear": _Kind(_simplex_linear, 6, {}, (
        "f(x) = <c, x> on the probability simplex with the entropy prox;\n"
        "x* is the least-cost vertex, F* = min(c).  Optimum: analytic.")),
}

ZOO_KINDS = tuple(_KINDS)

DESCRIPTIONS = {
    kind: row.description + "\nOptions: " + ", ".join(
        f"{name} (default {default})"
        for name, default in {"dimension": row.dimension, **row.options}.items())
    for kind, row in _KINDS.items()}


def make_problem(kind: str, dimension: int | None = None, seed: int = 0,
                 **options) -> ZooProblem:
    """Construct a zoo instance.  An unknown kind, a dimension that is not an
    integer >= 1, a seed that is not an integer >= 0, an option the kind does
    not have, and a number option that is not a finite int or float (or a str
    option that is not a str) raise ConfigError before anything is built."""
    spec = ProblemSpec(kind, dimension, seed)
    row = _KINDS[kind]
    unknown = set(options) - set(row.options)
    if unknown:
        raise ConfigError(f"unknown options for {kind}: {', '.join(sorted(unknown))}")
    for name, value in options.items():
        if isinstance(row.options[name], str):
            if not isinstance(value, str):
                raise ConfigError(f"{kind} option {name} must be a string, got {value!r}")
        else:
            _checked(f"{kind} option {name}", value)
    objective, setup, data, points = row.build(spec.dimension, spec.seed,
                                               **{**row.options, **options})
    _fd_consistency_check(objective, points)
    if objective.linear is not None:
        _image_consistency_check(objective, points)
    return ZooProblem(spec, objective, setup, data)
