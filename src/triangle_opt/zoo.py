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
gradient) before it is returned.  The quadratic, lasso and logistic kinds also
supply a fused value-and-gradient oracle that forms their matrix-vector
product once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .oracles import CompositeObjective, finite_difference_gradient, grad
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

    def f(x):
        z = q @ (np.asarray(x, dtype=float) - x_star)
        return 0.5 * float(z @ (lam * z))

    def df(x):
        z = q @ (np.asarray(x, dtype=float) - x_star)
        return q.T @ (lam * z)

    def f_df(x):
        z = q @ (np.asarray(x, dtype=float) - x_star)
        lam_z = lam * z
        return 0.5 * float(z @ lam_z), q.T @ lam_z

    if feasible == "free_space":
        feas = free_space()
    elif feasible == "box":
        half_width = max(3.0, 1.5 * float(np.max(np.abs(x_star))))
        feas = box(-half_width * np.ones(dimension), half_width * np.ones(dimension))
    else:
        raise ConfigError(f"quadratic supports feasible in {{free_space, box}}, got {feasible!r}")
    setup = euclidean_setup(center=np.zeros(dimension), feasible_set=feas)
    objective = CompositeObjective(
        smooth_value=f, smooth_grad=df, smooth_value_and_grad=f_df,
        h=SimpleTerm(kind="zero"),
        known_optimum=(x_star, 0.0),
        smoothness_meta={"L": lam_max, "mu": lam_min})
    h_matrix = q.T @ (lam[:, None] * q)
    data = {"A_matrix": h_matrix, "b": h_matrix @ x_star, "spectrum": lam, "x_star": x_star}
    spec = ProblemSpec("quadratic", dimension, seed, "analytic")
    probe_rng = np.random.default_rng(seed + 1)
    _fd_consistency_check(objective, [probe_rng.standard_normal(dimension) for _ in range(2)])
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

    def f(x):
        r = design @ np.asarray(x, dtype=float) - targets
        return 0.5 * float(r @ r)

    def df(x):
        r = design @ np.asarray(x, dtype=float) - targets
        return design.T @ r

    def f_df(x):
        r = design @ np.asarray(x, dtype=float) - targets
        return 0.5 * float(r @ r), design.T @ r

    gram_eigs = np.linalg.eigvalsh(design.T @ design)
    setup = euclidean_setup(center=np.zeros(dimension), feasible_set=free_space())
    optimum = _FROZEN_OPTIMA.get(("lasso", dimension, seed, lam))
    objective = CompositeObjective(
        smooth_value=f, smooth_grad=df, smooth_value_and_grad=f_df,
        h=SimpleTerm(kind="l1", lam=lam),
        known_optimum=optimum,
        smoothness_meta={"L": float(gram_eigs[-1]), "mu": float(max(gram_eigs[0], 0.0))})
    data = {"design": design, "targets": targets, "lam": lam}
    spec = ProblemSpec("lasso", dimension, seed, "precompute_by_long_run")
    probe_rng = np.random.default_rng(seed + 1)
    _fd_consistency_check(objective, [probe_rng.standard_normal(dimension) for _ in range(2)])
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

    def f(x):
        t = -labels * (design @ np.asarray(x, dtype=float))
        # log(1 + exp(t)) without overflow for large |t|
        return float(np.logaddexp(0.0, t).mean())

    def df(x):
        t = -labels * (design @ np.asarray(x, dtype=float))
        sig = 1.0 / (1.0 + np.exp(-t))
        return design.T @ (-labels * sig) / n_rows

    def f_df(x):
        t = -labels * (design @ np.asarray(x, dtype=float))
        sig = 1.0 / (1.0 + np.exp(-t))
        return float(np.logaddexp(0.0, t).mean()), design.T @ (-labels * sig) / n_rows

    gram_eigs = np.linalg.eigvalsh(design.T @ design)
    setup = euclidean_setup(center=np.zeros(dimension), feasible_set=free_space())
    optimum = _FROZEN_OPTIMA.get(("logistic", dimension, seed))
    objective = CompositeObjective(
        smooth_value=f, smooth_grad=df, smooth_value_and_grad=f_df,
        h=SimpleTerm(kind="zero"),
        known_optimum=optimum,
        smoothness_meta={"L": float(gram_eigs[-1]) / (4.0 * n_rows)})
    data = {"design": design, "labels": labels}
    spec = ProblemSpec("logistic", dimension, seed, "precompute_by_long_run")
    probe_rng = np.random.default_rng(seed + 1)
    _fd_consistency_check(objective, [probe_rng.standard_normal(dimension) for _ in range(2)])
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
    """Construct a zoo instance.  Unknown kinds and options raise ConfigError."""
    if kind not in ZOO_KINDS:
        raise ConfigError(f"unknown problem kind {kind!r}; known: {', '.join(ZOO_KINDS)}")
    if dimension is None:
        dimension = _DEFAULT_DIMENSIONS[kind]
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
