"""Experiment configuration, batch running, and bound checking.

An experiment is a JSON document naming a zoo problem, a solver configuration,
a list of seeds, and an optional output path.  ``run_experiment`` produces one
trace per seed, running the seeds one after another, and
``check_bounds`` grades a trace row-by-row against one of the guarantees the
solver family carries.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, MissingColumn, ValidationError, _checked
from .oracles import NoiseModel
from .solvers import POLICIES, RunReport, SolverConfig, StoppingRule, run
from .traces import Trace, _parse_json, emit_trace
from .zoo import ZooProblem, make_problem

_TOP_KEYS = {"problem", "prox", "solver", "epsilon", "seeds", "max_iters", "output"}
_PROX_KEYS = {"omega_tilde"}
# "solver" key -> the SolverConfig field it sets; "mode" and "stopping" keep
# their names, and the top-level "epsilon" and "max_iters" set theirs
_SOLVER_FIELDS = {"L": "L_known", "L0": "L0", "mu": "mu", "D": "D",
                  "max_backtracks": "max_backtracks_per_iter"}
_FIELD_TYPES = {f.name: f.type for f in fields(SolverConfig)}


@dataclass
class Experiment:
    problem: ZooProblem
    config: SolverConfig
    seeds: list
    output: str | None


@dataclass
class SeedResult:
    seed: int
    report: RunReport | None
    error: str | None
    path: str | None

    @property
    def trace(self) -> Trace | None:
        return None if self.report is None else self.report.trace


@dataclass
class BoundCheck:
    theorem_id: str
    rows: list
    passed: bool
    worst_margin: float
    failing_k: list

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        lines = [f"{self.theorem_id}: {verdict} over {len(self.rows)} rows, "
                 f"worst margin {self.worst_margin:.6g}"]
        if self.failing_k:
            lines.append(f"  failing k: {self.failing_k}")
        return "\n".join(lines)


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _number(name: str, value, integer: bool = False):
    """A JSON number, checked under its key's name: an integer one as it is,
    any other as a float.  The ranges are the checks of the values' owners."""
    value = _checked(f'"{name}"', value, integer=integer, error=ValidationError)
    return value if integer else float(value)


def load_experiment(config_text: str) -> Experiment:
    """Parse and validate a JSON experiment description.

    Required: problem (with kind), solver (with mode), seeds, max_iters.
    Optional: prox (an omega_tilde override of the problem's setup, where
    the run reads it), epsilon, output; a null one counts as absent.  An
    absent or null solver setting takes the SolverConfig default.  The
    problem's other keys, dimension and seed among them, go to make_problem
    as they are, which checks them.  Unknown or duplicate keys are rejected.
    """
    raw = _parse_json(config_text, "configuration")
    if not isinstance(raw, dict):
        raise ValidationError("configuration must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "configuration")
    for key in ("problem", "solver", "seeds", "max_iters"):
        if key not in raw:
            raise ValidationError(f"configuration is missing {key!r}")

    problem_cfg = raw["problem"]
    if not isinstance(problem_cfg, dict) or "kind" not in problem_cfg:
        raise ValidationError('"problem" must be an object with a "kind"')
    options = {k: v for k, v in problem_cfg.items() if k != "kind"}
    try:
        problem = make_problem(problem_cfg["kind"], **options)
    except ConfigError as exc:
        raise ValidationError(str(exc)) from exc

    prox_cfg = {} if raw.get("prox") is None else raw["prox"]
    if not isinstance(prox_cfg, dict):
        raise ValidationError('"prox" must be an object')
    _require_keys(prox_cfg, _PROX_KEYS, "prox")
    if prox_cfg.get("omega_tilde") is not None:
        omega_tilde = _number("prox.omega_tilde", prox_cfg["omega_tilde"])
        try:
            problem.setup = replace(problem.setup, omega_tilde=omega_tilde)
        except DomainError as exc:
            raise ValidationError(str(exc)) from exc

    solver_cfg = raw["solver"]
    if not isinstance(solver_cfg, dict) or "mode" not in solver_cfg:
        raise ValidationError('"solver" must be an object with a "mode"')
    _require_keys(solver_cfg, {"mode", "stopping", *_SOLVER_FIELDS}, "solver")
    settings = {field: _number(f"solver.{key}", solver_cfg[key], _FIELD_TYPES[field] == "int")
                for key, field in _SOLVER_FIELDS.items() if solver_cfg.get(key) is not None}
    if raw.get("epsilon") is not None:
        settings["epsilon"] = _number("epsilon", raw["epsilon"])
    settings["max_iters"] = raw["max_iters"]  # required, so a null one is not the default
    stopping_cfg = {} if solver_cfg.get("stopping") is None else solver_cfg["stopping"]
    if not isinstance(stopping_cfg, dict):
        raise ValidationError('"stopping" must be an object')
    _require_keys(stopping_cfg, {f.name for f in fields(StoppingRule)}, "stopping")
    rule = {key: value if key == "kind" else _number(f"stopping.{key}", value)
            for key, value in stopping_cfg.items() if value is not None}

    seeds = raw["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ValidationError('"seeds" must be a nonempty list of integers')
    for seed in seeds:
        _checked('"seeds"', seed, integer=True, error=ValidationError)
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        # seeds run one after another, so a repeat would overwrite its own trace file
        raise ValidationError(f'"seeds" lists seed {repeated} more than once')
    # sumst keys its stream from the seed, which SeedSequence needs >= 0
    _checked('"seeds"', min(seeds), 0, integer=True, error=ValidationError)
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError('"output" must be a path string')

    try:
        config = SolverConfig(mode=solver_cfg["mode"], stopping=StoppingRule(**rule),
                              **settings)
    except ConfigError as exc:
        raise ValidationError(str(exc)) from exc
    return Experiment(problem=problem, config=config, seeds=list(seeds), output=output)


def _seed_output_path(output: str | None, seed: int, n_seeds: int) -> str | None:
    if output is None:
        return None
    if "{seed}" in output:
        return output.replace("{seed}", str(seed))
    if n_seeds == 1:
        return output
    stem, ext = os.path.splitext(output)
    return f"{stem}_seed{seed}{ext}"


def run_experiment(experiment: Experiment) -> list[SeedResult]:
    """One solver run per seed; deterministic given the seed list.  A sumst
    experiment draws gaussian gradients with variance D (``config.D``).

    Per-seed solver errors are recorded on the result rather than aborting the
    batch; a run that fails after recording its first row keeps its partial
    report and trace, with error set.  Traces, partial ones included, are
    written to the experiment's output path (one file per seed) when an output
    is configured.
    """
    problem = experiment.problem
    config = experiment.config
    objective = problem.objective
    if POLICIES[config.mode].stochastic:
        objective = replace(objective, noise_model=NoiseModel(kind="gaussian"))

    def one_seed(seed: int) -> SeedResult:
        path = _seed_output_path(experiment.output, seed, len(experiment.seeds))
        error = None
        try:
            report = run(objective, problem.setup, config, rng=seed)
        except Exception as exc:
            # a run that failed after its first row keeps its partial report
            report = getattr(exc, "report", None)
            error = f"{type(exc).__name__}: {exc}"
        if report is None:
            return SeedResult(seed=seed, report=None, error=error, path=None)
        if path is not None:
            fmt = "json" if path.endswith(".json") else "csv"
            emit_trace(report.trace, fmt, path)
        return SeedResult(seed=seed, report=report, error=error, path=path)

    # one worker, in seed order: interpreter-bound seed runs on two threads
    # only contend for the GIL, and ran slower than one after another
    with ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(one_seed, experiment.seeds))


def _finite_columns(trace: Trace | None, *names: str) -> list:
    """The named columns; MissingColumn if one is absent or, with rows, has no finite value."""
    if trace is None:
        raise ConfigError("bound check needs a trace")
    cols = [trace.column(name) for name in names]
    for name, col in zip(names, cols):
        if len(col) and not np.any(np.isfinite(col)):
            raise MissingColumn(f"column {name!r} has no finite values")
    return cols


def _checked_param(name: str, value, positive: bool = False) -> float:
    return float(_checked(f"bound check parameter {name!r}", value, 0, above=positive))


_positive = functools.partial(_checked_param, positive=True)


def _points(name: str, value) -> np.ndarray:
    """(epsilon, N) pairs; two distinct epsilons, since one leaves the slope open."""
    try:
        points = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        points = np.empty(0)
    if not (points.shape[1:] == (2,) and np.all(np.isfinite(points) & (points > 0.0))
            and np.unique(points[:, 0]).size >= 2):
        raise ConfigError(f"bound check parameter {name!r} must be (epsilon, N) pairs, finite "
                          f"and > 0, with two distinct epsilon values, got {value!r}")
    return points


def _row(k: int, tol: float, *constraints) -> dict:
    """The row of whichever (measured, bound) constraint has the least margin,
    bound + tol - measured."""
    measured, bound = min(constraints, key=lambda c: c[1] + tol - c[0])
    margin = bound + tol - measured
    return {"k": int(k), "measured": float(measured), "bound": float(bound),
            "margin": float(margin), "ok": margin >= 0.0}


def _check_gap_bound(trace: Trace, bound_fn, tol: float, with_gap_y: bool = False) -> list:
    """Rows gap(k) <= bound_fn(k) + tol, skipping rows with no finite gap and
    rows where bound_fn gives None; with_gap_y grades max(gap, gap_y) where
    the trace has a finite gap_y."""
    ks, gaps = _finite_columns(trace, "k", "gap")
    if with_gap_y and trace.has_column("gap_y"):
        gap_y = trace.column("gap_y")
        gaps = np.where(np.isfinite(gap_y), np.maximum(gaps, gap_y), gaps)
    rows = []
    for k, gap in zip(ks, gaps):
        bound = bound_fn(int(k))
        if bound is not None and math.isfinite(gap):
            rows.append(_row(k, tol, (float(gap), bound)))
    return rows


def _t1(trace, p):
    return _check_gap_bound(trace, lambda k: 4.0 * p["L"] * p["R2"] / (k + 1) ** 2, p["tol"])


def _t2_t3(trace, p):
    L, r2 = p["L"], p["R2"]
    rate = 0.5 * math.sqrt(p["mu"] / p["omega_tilde"] / L)
    return _check_gap_bound(
        trace, lambda k: min(4.0 * L * r2 / (k + 1) ** 2, L * r2 * math.exp(-rate * k)), p["tol"])


def _c1(trace, p):
    ks, du, dx, dy = _finite_columns(trace, "k", "dist_u_sq", "dist_x_sq", "dist_y_sq")
    u_bound = 2.0 * p["R2"]
    xy_bound = 4.0 * p["R2"] + 2.0 * p["x0_y0_sq"]
    return [_row(k, p["tol"], (a, u_bound), (max(b, c), xy_bound))
            for k, a, b, c in zip(ks, du, dx, dy)]


def _c2(trace, p):
    r_tilde_sq = 4.0 * p["R2"] + 2.0 * p["x0_y0_sq"]
    return _check_gap_bound(trace, lambda k: p["L"] * r_tilde_sq / k ** 2 if k >= 1 else None,
                            p["tol"], with_gap_y=True)


def _t6_work(trace, p):
    ks, cum_f, cum_grad, l_trial, j = _finite_columns(trace, "k", "cum_f", "cum_grad",
                                                      "L_trial", "j")
    if len(ks) == 0:
        return []
    # L00 = L_trial / 2^j of row 0; ldexp stays finite where 2.0 ** j overflows
    l00 = math.ldexp(float(l_trial[0]), -int(j[0]))
    if not (math.isfinite(l00) and l00 > 0.0):
        raise ConfigError(f"t6_work needs L_trial / 2^j of row 0 finite and > 0, got "
                          f"L_trial = {float(l_trial[0])!r}, j = {int(j[0])}")
    log_term = math.log2(2.0 * p["L"] / l00)
    return [_row(k, p["tol"], (cf, 4.0 * k + log_term + 4.0), (cg, 2.0 * k + log_term + 2.0))
            for k, cf, cg in zip(ks, cum_f, cum_grad)]


def _t9_scaling(trace, p):
    eps, iters = p["points"].T
    slope = float(np.polyfit(np.log(1.0 / eps), np.log(iters), 1)[0])
    return [_row(0, p["tol"], (slope, 2.0 / (1.0 + 3.0 * p["nu"]) + 0.3))]


def _t10_calls(trace, p):
    ks, cum_stoch = _finite_columns(trace, "k", "cum_stoch")
    if len(ks) == 0:
        return []
    bound = 4.0 * (4.0 * p["D"] * p["R2"] / p["epsilon"] ** 2 + 2.0 * int(ks[-1]))
    return [_row(ks[-1], p["tol"], (cum_stoch[-1], bound))]


def _t5_halving(trace, p):
    bound = p["mu"] * p["y0_dist_sq"]  # over 2^(k+1) by ldexp: 2.0 ** (k + 1) overflows
    return _check_gap_bound(trace, lambda k: math.ldexp(bound, -k - 1), p["tol"])


class _Param(NamedTuple):
    check: Callable          # check(name, value) -> the value, or ConfigError naming it
    flag: str | None = None  # the `check` flag that gives it
    doc: str = ""            # that flag's help
    meta: bool = False       # the trace's meta may give it when the caller does not
    default: float | None = None


class _Theorem(NamedTuple):
    tol: float       # default tolerance
    grade: Callable  # grade(trace, params) -> rows, params checked and with tol
    params: dict     # name -> _Param of each parameter it reads


_L = _Param(_positive, "--L", "Lipschitz constant")
_R2 = _Param(_checked_param, "--R2", "initial distance term V(x*, y0)")
_MU = _Param(_checked_param, "--mu", "strong convexity modulus")
_X0_Y0_SQ = _Param(_checked_param, meta=True)

_THEOREMS = {
    "t1": _Theorem(1e-10, _t1, {"L": _L, "R2": _R2}),
    "t2_t3": _Theorem(1e-10, _t2_t3, {"L": _L, "R2": _R2, "mu": _MU,
                                      "omega_tilde": _Param(_positive, default=1.0)}),
    "c1": _Theorem(1e-8, _c1, {"R2": _R2, "x0_y0_sq": _X0_Y0_SQ}),
    "c2": _Theorem(1e-8, _c2, {"L": _L, "R2": _R2, "x0_y0_sq": _X0_Y0_SQ}),
    "t6_work": _Theorem(0.0, _t6_work, {"L": _L}),
    "t9_scaling": _Theorem(0.0, _t9_scaling, {"nu": _Param(_checked_param),
                                              "points": _Param(_points)}),
    "t10_calls": _Theorem(0.0, _t10_calls, {
        "D": _Param(_positive, "--D", "gradient variance bound"), "R2": _R2,
        "epsilon": _Param(_positive, "--epsilon", "target accuracy")}),
    "t5_halving": _Theorem(1e-9, _t5_halving, {
        "mu": _MU._replace(meta=True),
        "y0_dist_sq": _Param(_checked_param, "--R2", "||y0 - x*||^2 on a restart_run trace",
                             meta=True)}),
}
THEOREM_IDS = tuple(_THEOREMS)


def _gather_params(theorem: _Theorem, trace: Trace | None, params: dict) -> dict:
    """tol and each parameter the theorem reads, from its first source, checked;
    a key it does not read is a ConfigError, not a value silently dropped."""
    unread = [key for key in params if key != "tol" and key not in theorem.params]
    if unread:
        raise ConfigError(f"bound check does not read {', '.join(map(repr, unread))}; "
                          f"it reads {', '.join([*theorem.params, 'tol'])}")
    out = {"tol": _checked_param("tol", params.get("tol", theorem.tol))}
    for name, param in theorem.params.items():
        value = params.get(name)
        if value is None and param.meta and trace is not None:
            value = trace.meta.get(name)
        if value is None:
            value = param.default
        if value is None:
            where = " (not found in trace metadata)" if param.meta else ""
            raise ConfigError(f"bound check needs parameter {name!r}{where}")
        out[name] = param.check(name, value)
    return out


def check_bounds(trace: Trace | None, theorem_id: str, params: dict | None = None) -> BoundCheck:
    """Grade a trace against one of the convergence/work guarantees.

    t1         gap(k) <= 4*L*R2/(k+1)^2 + tol                  params: L, R2
    t2_t3      gap(k) <= min of the t1 rate and                params: L, R2, mu,
               L*R2*exp(-(k/2)*sqrt(mu/(w*L))) + tol           omega_tilde = w (default 1.0)
    c1         dist_u_sq <= 2*R2 + tol and
               max(dist_x, dist_y) <= 4*R2 + 2*x0_y0_sq + tol  params: R2, x0_y0_sq (or meta)
    c2         gap(k) (and gap_y when present)
               <= L*(4*R2 + 2*x0_y0_sq)/k^2 + tol, k >= 1      params: L, R2, x0_y0_sq (or meta)
    t6_work    cum_f(N) <= 4N + log2(2L/L00) + 4 + tol and
               cum_grad(N) <= 2N + log2(2L/L00) + 2 + tol      params: L (L00 from row 0)
    t9_scaling log-log slope of N against 1/eps
               <= 2/(1+3nu) + 0.3 + tol                        params: nu, points [(eps, N), ...]
    t10_calls  cum_stoch(N) <= 4*(4*D*R2/eps^2 + 2N) + tol     params: D, R2, epsilon
    t5_halving gap at restart k <= mu*y0_dist_sq/2^(k+1) + tol params: mu, y0_dist_sq (or meta)

    A parameter, or tol, comes from params, else trace.meta where marked, else
    its default; each keeps the number rule, > 0 for L, D, epsilon and
    omega_tilde and >= 0 for the others, and points has two distinct epsilons.
    A missing or bad one, or a key the theorem does not read, raises
    ConfigError naming it.  Rows show the binding constraint; margin =
    bound + tol - measured >= 0 passes.  A truncated or empty trace passes
    vacuously.
    """
    theorem = _THEOREMS.get(theorem_id)
    if theorem is None:
        raise ConfigError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    rows = theorem.grade(trace, _gather_params(theorem, trace, params or {}))
    failing = [r["k"] for r in rows if not r["ok"]]
    return BoundCheck(theorem_id=theorem_id, rows=rows, passed=not failing,
                      worst_margin=min((r["margin"] for r in rows), default=math.inf),
                      failing_k=failing)


__all__ = ["THEOREM_IDS", "BoundCheck", "Experiment", "SeedResult", "check_bounds",
           "load_experiment", "run_experiment"]
