"""Benchmark problem zoo.

Five seeded problem families used by the tests, the demos, and the CLI:

* ``quadratic``: f(x) = (1/2)(x - x*)' H (x - x*) with H built from a seeded
  orthogonal basis and a prescribed spectrum, so L (= largest eigenvalue), mu
  (= smallest), x*, and F* = 0 are exact by construction and the value is
  computed cancellation-free near the optimum.
* ``lasso``: f(x) = (1/2)||A x - y||^2 with h = lam*||x||_1; optimum frozen
  from a long high-accuracy reference run.
* ``holder_norm_power``: f(x) = (1/p)||x||_2^p for p = 1 + nu in [1, 2]; the
  gradient is nu-Holder with L_nu = 2^(1-nu) and x* = 0, F* = 0.
* ``logistic``: mean logistic loss on seeded non-separable data (a fixed
  fraction of labels is flipped so the minimizer is finite); optimum frozen
  from a long reference run.
* ``simplex_linear``: f(x) = <c, x> on the probability simplex with the
  entropy prox; x* is the least-cost vertex.

Every constructed instance is finite-difference checked (value against
gradient) before it is returned.  The quadratic, lasso and logistic kinds are
f(x) = psi(z(x)) with z affine: they carry that ``LinearImage``, from which
their value and gradient oracles are built, and which is checked at
construction against those oracles, for its Bregman term and for its adjoint.
The quadratic and the lasso also carry f as a ``QuadraticForm`` (Hessian
product, center, value), which is checked against the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .oracles import (CompositeObjective, LinearImage, QuadraticForm,
                      finite_difference_gradient, grad)
from .prox_geometry import (ProxSetup, SimpleTerm, box, entropy_setup,
                            euclidean_setup, free_space, two_norm)

ZOO_KINDS = ("quadratic", "lasso", "holder_norm_power", "logistic", "simplex_linear")

DESCRIPTIONS = {
    "quadratic": (
        "f(x) = 1/2 (x - x*)' H (x - x*), H = Q' diag(spectrum) Q from a seeded\n"
        "orthogonal basis; exact L = spectrum max, mu = spectrum min, F* = 0.\n"
        "Options: dimension (default 50), lam_min (0.02), lam_max (1.0),\n"
        "x_star_norm (2.0), feasible in {free_space, box}.  Optimum: analytic."),
    "lasso": (
        "f(x) = 1/2 ||A x - y||^2, h(x) = lam ||x||_1, with A a seeded 5n-by-n\n"
        "design and y generated from a sparse ground truth plus noise.\n"
        "Options: dimension (default 12), lam (0.5).  Optimum: frozen from a\n"
        "long reference run for the canonical instance, else unknown."),
    "holder_norm_power": (
        "f(x) = (1/p) ||x||_2^p with p = 1 + nu in [1, 2]; gradient is\n"
        "nu-Holder with L_nu = 2^(1-nu); x* = 0, F* = 0.  Options: p (default\n"
        "1.5), dimension (default 5).  Optimum: analytic."),
    "logistic": (
        "f(x) = mean_i log(1 + exp(-b_i <a_i, x>)) on seeded data with 20% of\n"
        "labels flipped (keeps the minimizer finite).  Options: dimension\n"
        "(default 8).  Optimum: frozen from a long reference run for the\n"
        "canonical instance, else unknown."),
    "simplex_linear": (
        "f(x) = <c, x> on the probability simplex with the entropy prox;\n"
        "x* is the least-cost vertex, F* = min(c).  Options: dimension\n"
        "(default 6).  Optimum: analytic."),
}


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    dimension: int
    seed: int
    optimum_policy: str

    def __post_init__(self):
        if self.kind not in ZOO_KINDS:
            raise ConfigError(f"unknown problem kind {self.kind!r}; known: {', '.join(ZOO_KINDS)}")
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.optimum_policy not in ("analytic", "precompute_by_long_run"):
            raise ConfigError(f"unknown optimum policy {self.optimum_policy!r}")


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
    point psi(z(x)) and adjoint(psi_grad(z(x))) must equal the value and
    gradient oracles to 1e-12 relative, and so must value + 1/2 <x - c,
    hessian(x - c)> and hessian(x - c) of a quadratic form; between the two
    points psi_bregman must match the difference of psi values it stands for,
    and adjoint must pass a dot-product test against forward."""
    image = objective.linear
    form = image.quadratic
    images = []
    for x in points:
        z = image.forward(x)
        f, w = image.psi(z), image.psi_grad(z)
        g = image.adjoint(w)
        if (abs(f - objective.smooth_value(x)) > 1e-12 * abs(f)
                or two_norm(g - objective.smooth_grad(x)) > 1e-12 * two_norm(g)):
            raise DomainError("linear image disagrees with the value/gradient oracles")
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


def _quadratic(dimension: int, seed: int, lam_min: float, lam_max: float,
               x_star_norm: float, feasible: str) -> ZooProblem:
    if not 0 < lam_min <= lam_max:
        raise ConfigError("quadratic needs 0 < lam_min <= lam_max")
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
    spec = ProblemSpec("quadratic", dimension, seed, "analytic")
    probe_rng = np.random.default_rng(seed + 1)
    points = [probe_rng.standard_normal(dimension) for _ in range(2)]
    _fd_consistency_check(objective, points)
    _image_consistency_check(objective, points)
    return ZooProblem(spec, objective, setup, data)


def _lasso(dimension: int, seed: int, lam: float) -> ZooProblem:
    if lam < 0:
        raise ConfigError("lasso needs lam >= 0")
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
    spec = ProblemSpec("lasso", dimension, seed, "precompute_by_long_run")
    probe_rng = np.random.default_rng(seed + 1)
    points = [probe_rng.standard_normal(dimension) for _ in range(2)]
    _fd_consistency_check(objective, points)
    _image_consistency_check(objective, points)
    return ZooProblem(spec, objective, setup, data)


def _holder_norm_power(dimension: int, seed: int, p: float) -> ZooProblem:
    if not 1.0 <= p <= 2.0:
        raise ConfigError("holder_norm_power needs p in [1, 2]")
    nu = p - 1.0

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
    data = {"p": p}
    spec = ProblemSpec("holder_norm_power", dimension, seed, "analytic")
    probe_rng = np.random.default_rng(seed + 1)
    probes = []
    for _ in range(2):
        v = probe_rng.standard_normal(dimension)
        probes.append(v / np.linalg.norm(v))
    _fd_consistency_check(objective, probes)
    return ZooProblem(spec, objective, setup, data)


def _logistic(dimension: int, seed: int) -> ZooProblem:
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
    spec = ProblemSpec("logistic", dimension, seed, "precompute_by_long_run")
    probe_rng = np.random.default_rng(seed + 1)
    points = [probe_rng.standard_normal(dimension) for _ in range(2)]
    _fd_consistency_check(objective, points)
    _image_consistency_check(objective, points)
    return ZooProblem(spec, objective, setup, data)


def _simplex_linear(dimension: int, seed: int) -> ZooProblem:
    if dimension < 2:
        raise ConfigError("simplex_linear needs dimension >= 2")
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
    data = {"costs": costs}
    spec = ProblemSpec("simplex_linear", dimension, seed, "analytic")
    probe_rng = np.random.default_rng(seed + 1)
    _fd_consistency_check(objective, [probe_rng.dirichlet(np.ones(dimension)) for _ in range(2)])
    return ZooProblem(spec, objective, setup, data)


_DEFAULT_DIMENSIONS = {"quadratic": 50, "lasso": 12, "holder_norm_power": 5,
                       "logistic": 8, "simplex_linear": 6}

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


def make_problem(kind: str, dimension: int | None = None, seed: int = 0,
                 **options) -> ZooProblem:
    """Construct a zoo instance.  Unknown kinds and options, a dimension that is
    not an integer >= 1 and a seed that is not an integer >= 0 raise ConfigError
    before anything is built."""
    if kind not in ZOO_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {', '.join(ZOO_KINDS)}")
    if dimension is None:
        dimension = _DEFAULT_DIMENSIONS[kind]
    for name, value, minimum in (("dimension", dimension, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    allowed = {"quadratic": {"lam_min", "lam_max", "x_star_norm", "feasible"},
               "lasso": {"lam"}, "holder_norm_power": {"p"}, "logistic": set(),
               "simplex_linear": set()}[kind]
    unknown = set(options) - allowed
    if unknown:
        raise ConfigError(f"unknown options for {kind}: {', '.join(sorted(unknown))}")
    if kind == "quadratic":
        return _quadratic(dimension, seed, options.get("lam_min", 0.02),
                          options.get("lam_max", 1.0), options.get("x_star_norm", 2.0),
                          options.get("feasible", "free_space"))
    if kind == "lasso":
        return _lasso(dimension, seed, options.get("lam", 0.5))
    if kind == "holder_norm_power":
        return _holder_norm_power(dimension, seed, options.get("p", 1.5))
    if kind == "logistic":
        return _logistic(dimension, seed)
    return _simplex_linear(dimension, seed)


def precompute_optimum(problem: ZooProblem, iterations: int = 200000) -> tuple[np.ndarray, float]:
    """High-accuracy reference solve used to freeze optima for the kinds
    without a closed form.  Uses the adaptive mode with the strong convexity
    the instance is known to have, stopping at float-level stationarity (the
    iteration budget is a cap, not a target)."""
    from .solvers import SolverConfig, StoppingRule, run

    meta = problem.objective.smoothness_meta or {}
    config = SolverConfig(mode="amst_adaptive", L0=max(meta.get("L", 1.0), 1.0),
                          mu=meta.get("mu", 0.0), max_iters=iterations,
                          stopping=StoppingRule(kind="gradient_mapping", threshold=1e-12))
    report = run(problem.objective, problem.setup, config)
    f_best = problem.objective.composite_value(report.final_x)
    return report.final_x, f_best
