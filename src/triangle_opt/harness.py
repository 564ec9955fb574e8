"""Experiment configuration, batch running, and bound checking.

An experiment is a JSON document naming a zoo problem, a solver configuration,
a list of seeds, and an optional output path.  ``run_experiment`` produces one
trace per seed (concurrently, capped by TRIANGLE_OPT_THREADS) and
``check_bounds`` grades a trace row-by-row against one of the guarantees the
solver family carries.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, MissingColumn, ParseError, ValidationError
from .oracles import NoiseModel, StochasticGradientOracle
from .solvers import RunReport, SolverConfig, StoppingRule, run
from .traces import Trace, emit_trace
from .zoo import ZooProblem, make_problem

_TOP_KEYS = {"problem", "prox", "solver", "epsilon", "seeds", "max_iters", "output"}
_PROBLEM_KEYS = {"kind", "dimension", "seed", "lam", "lam_min", "lam_max",
                 "x_star_norm", "feasible", "p"}
_PROX_KEYS = {"omega_tilde", "omega"}
_SOLVER_KEYS = {"mode", "L", "L0", "mu", "D", "max_backtracks", "stopping"}
_STOPPING_KEYS = {"kind", "threshold", "r_sq"}

THEOREM_IDS = ("t1", "t2_t3", "c1", "c2", "t6_work", "t9_scaling", "t10_calls", "t5_halving")


@dataclass
class Experiment:
    problem: ZooProblem
    config: SolverConfig
    seeds: list
    output: str | None
    raw: dict


@dataclass
class SeedResult:
    seed: int
    trace: Trace | None
    report: RunReport | None
    error: str | None
    path: str | None


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


def _reject_duplicates(pairs):
    seen = set()
    out = {}
    for key, val in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r} in configuration")
        seen.add(key)
        out[key] = val
    return out


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _number(where: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f'"{where}.{key}" must be a number, got {value!r}')
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f'"{where}.{key}" must be finite')
    return value


def _optional_number(where: str, section: dict, key: str, default=None):
    if key not in section or section[key] is None:
        return default
    return _number(where, key, section[key])


def load_experiment(config_text: str) -> Experiment:
    """Parse and validate a JSON experiment description.

    Required: problem (with kind), solver (with mode), seeds, max_iters.
    Optional: prox (omega_tilde/omega overrides), epsilon, output.
    Unknown or duplicate keys are rejected.
    """
    try:
        raw = json.loads(config_text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ParseError(f"configuration is not valid JSON: line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("configuration must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "configuration")
    for key in ("problem", "solver", "seeds", "max_iters"):
        if key not in raw:
            raise ValidationError(f"configuration is missing {key!r}")

    problem_cfg = raw["problem"]
    if not isinstance(problem_cfg, dict) or "kind" not in problem_cfg:
        raise ValidationError('"problem" must be an object with a "kind"')
    _require_keys(problem_cfg, _PROBLEM_KEYS, "problem")
    options = {k: v for k, v in problem_cfg.items() if k not in ("kind", "dimension", "seed")}
    try:
        problem = make_problem(problem_cfg["kind"], problem_cfg.get("dimension"),
                               problem_cfg.get("seed", 0), **options)
    except ConfigError as exc:
        raise ValidationError(str(exc)) from exc

    prox_cfg = raw.get("prox", {})
    if not isinstance(prox_cfg, dict):
        raise ValidationError('"prox" must be an object')
    _require_keys(prox_cfg, _PROX_KEYS, "prox")
    setup = problem.setup
    if prox_cfg:
        setup = replace(
            setup,
            omega_tilde=_optional_number("prox", prox_cfg, "omega_tilde", setup.omega_tilde),
            omega=_optional_number("prox", prox_cfg, "omega", setup.omega))
        problem.setup = setup

    solver_cfg = raw["solver"]
    if not isinstance(solver_cfg, dict) or "mode" not in solver_cfg:
        raise ValidationError('"solver" must be an object with a "mode"')
    _require_keys(solver_cfg, _SOLVER_KEYS, "solver")
    mode = solver_cfg["mode"]
    if mode == "sumst_stochastic_universal" and "D" not in solver_cfg:
        raise ValidationError('solver mode sumst_stochastic_universal requires "D"')
    stopping_cfg = solver_cfg.get("stopping", {})
    if not isinstance(stopping_cfg, dict):
        raise ValidationError('"stopping" must be an object')
    _require_keys(stopping_cfg, _STOPPING_KEYS, "stopping")
    stopping = StoppingRule(kind=stopping_cfg.get("kind", "iterations_only"),
                            threshold=_optional_number("stopping", stopping_cfg, "threshold"),
                            r_sq=_optional_number("stopping", stopping_cfg, "r_sq"))

    seeds = raw["seeds"]
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
        raise ValidationError('"seeds" must be a nonempty list of integers')
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        # each seed writes its own trace file, so a repeat would race on it
        raise ValidationError(f'"seeds" lists seed {repeated} more than once')
    max_iters = raw["max_iters"]
    if not isinstance(max_iters, int) or isinstance(max_iters, bool) or max_iters < 1:
        raise ValidationError('"max_iters" must be a positive integer')
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValidationError('"output" must be a path string')

    max_backtracks = solver_cfg.get("max_backtracks", 60)
    if isinstance(max_backtracks, bool) or not isinstance(max_backtracks, int):
        raise ValidationError('"solver.max_backtracks" must be an integer')

    try:
        config = SolverConfig(
            mode=mode,
            L_known=_optional_number("solver", solver_cfg, "L"),
            L0=_optional_number("solver", solver_cfg, "L0", 1.0),
            mu=_optional_number("solver", solver_cfg, "mu", 0.0),
            omega_tilde=setup.omega_tilde,
            epsilon=_optional_number("configuration", raw, "epsilon"),
            D=_optional_number("solver", solver_cfg, "D"),
            max_iters=max_iters,
            max_backtracks_per_iter=max_backtracks,
            stopping=stopping,
        )
        config.validate()
    except ConfigError as exc:
        raise ValidationError(str(exc)) from exc
    return Experiment(problem=problem, config=config, seeds=list(seeds),
                      output=output, raw=raw)


def _seed_output_path(output: str | None, seed: int, n_seeds: int) -> str | None:
    if output is None:
        return None
    if "{seed}" in output:
        return output.replace("{seed}", str(seed))
    if n_seeds == 1:
        return output
    stem, dot, ext = output.rpartition(".")
    if not dot:
        return f"{output}_seed{seed}"
    return f"{stem}_seed{seed}.{ext}"


def _worker_count(n_seeds: int) -> int:
    cap = os.environ.get("TRIANGLE_OPT_THREADS")
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError as exc:
            raise ConfigError(f"TRIANGLE_OPT_THREADS must be an integer, got {cap!r}") from exc
        if cap < 1:
            raise ConfigError("TRIANGLE_OPT_THREADS must be >= 1")
        return min(n_seeds, cap)
    return min(n_seeds, os.cpu_count() or 1)


def run_experiment(experiment: Experiment) -> list[SeedResult]:
    """One solver run per seed; deterministic given the seed list.

    Per-seed solver errors are recorded on the result rather than aborting the
    batch; a run that fails after recording its first row keeps its partial
    report and trace, with error set.  Traces, partial ones included, are
    written to the experiment's output path (one file per seed) when an output
    is configured.
    """
    problem = experiment.problem
    config = experiment.config
    objective = problem.objective
    if config.mode == "sumst_stochastic_universal":
        objective = StochasticGradientOracle(base=problem.objective,
                                             noise_model=NoiseModel(kind="gaussian"),
                                             variance_bound=float(config.D))

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
            return SeedResult(seed=seed, trace=None, report=None, error=error, path=None)
        if path is not None:
            fmt = "json" if path.endswith(".json") else "csv"
            emit_trace(report.trace, fmt, path)
        return SeedResult(seed=seed, trace=report.trace, report=report,
                          error=error, path=path)

    seeds = experiment.seeds
    if len(seeds) == 1:
        return [one_seed(seeds[0])]
    with ThreadPoolExecutor(max_workers=_worker_count(len(seeds))) as pool:
        return list(pool.map(one_seed, seeds))


def _finite_column(trace: Trace, name: str) -> np.ndarray:
    if not trace.has_column(name):
        raise MissingColumn(f"bound check needs column {name!r}")
    col = trace.column(name)
    if len(col) and not np.any(np.isfinite(col)):
        raise MissingColumn(f"column {name!r} has no finite values")
    return col


def _need(params: dict, *names):
    vals = []
    for name in names:
        if name not in params or params[name] is None:
            raise ConfigError(f"bound check needs parameter {name!r}")
        vals.append(float(params[name]))
    return vals[0] if len(vals) == 1 else vals


def _meta_or_param(trace: Trace, params: dict, name: str) -> float:
    if name in params and params[name] is not None:
        return float(params[name])
    if trace is not None and name in trace.meta:
        return float(trace.meta[name])
    raise ConfigError(f"bound check needs parameter {name!r} (not found in trace metadata)")


def _finish(theorem_id: str, rows: list) -> BoundCheck:
    failing = [r["k"] for r in rows if not r["ok"]]
    worst = min((r["margin"] for r in rows), default=math.inf)
    return BoundCheck(theorem_id=theorem_id, rows=rows, passed=not failing,
                      worst_margin=worst, failing_k=failing)


def _check_gap_bound(trace: Trace, bound_fn, tol: float, theorem_id: str) -> BoundCheck:
    ks = _finite_column(trace, "k").astype(int)
    gaps = _finite_column(trace, "gap")
    rows = []
    for k, gap in zip(ks, gaps):
        if not math.isfinite(gap):
            continue
        bound = bound_fn(int(k))
        if bound is None:
            continue
        margin = bound + tol - gap
        rows.append({"k": int(k), "measured": float(gap), "bound": float(bound),
                     "margin": float(margin), "ok": margin >= 0.0})
    return _finish(theorem_id, rows)


def check_bounds(trace: Trace | None, theorem_id: str, params: dict | None = None) -> BoundCheck:
    """Grade a trace against one of the convergence/work guarantees.

    t1         gap(k) <= 4*L*R2/(k+1)^2 + tol                  params: L, R2
    t2_t3      gap(k) <= min of the t1 rate and
               L*R2*exp(-(k/2)*sqrt(mu_tilde/L)) + tol         params: L, R2, mu [, omega_tilde]
    c1         dist_u_sq <= 2*R2 + tol and
               max(dist_x, dist_y) <= 4*R2 + 2*x0_y0_sq + tol  params: R2 [, x0_y0_sq]
    c2         gap(k) (and gap_y when present)
               <= L*(4*R2 + 2*x0_y0_sq)/k^2 + tol, k >= 1      params: L, R2 [, x0_y0_sq]
    t6_work    cum_f(N) <= 4N + log2(2L/L00) + 4 and
               cum_grad(N) <= 2N + log2(2L/L00) + 2            params: L (L00 from row 0)
    t9_scaling log-log slope of N against 1/eps
               <= 2/(1+3nu) + 0.3                              params: nu, points [(eps, N), ...]
    t10_calls  cum_stoch(N) <= 4*(4*D*R2/eps^2 + 2N)           params: D, R2, epsilon
    t5_halving gap at restart k <= mu*y0_dist_sq/2^(k+1) + tol params: mu, y0_dist_sq (or meta)

    Margins are bound + tol - measured: nonnegative means pass.  A truncated
    or empty trace passes vacuously.
    """
    params = dict(params or {})
    if theorem_id not in THEOREM_IDS:
        raise ConfigError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    tol = float(params.pop("tol", _DEFAULT_TOL[theorem_id]))

    if theorem_id == "t9_scaling":
        nu = _need(params, "nu")
        points = params.get("points")
        if not points or len(points) < 2:
            raise ConfigError("t9_scaling needs at least two (epsilon, N) points")
        eps = np.array([float(p[0]) for p in points])
        iters = np.array([float(p[1]) for p in points])
        slope = float(np.polyfit(np.log(1.0 / eps), np.log(iters), 1)[0])
        limit = 2.0 / (1.0 + 3.0 * nu) + 0.3
        rows = [{"k": i, "measured": slope, "bound": limit,
                 "margin": limit + tol - slope, "ok": slope <= limit + tol}
                for i in range(1)]
        return _finish(theorem_id, rows)

    if trace is None:
        raise ConfigError(f"{theorem_id} needs a trace")

    if theorem_id == "t1":
        L, r2 = _need(params, "L", "R2")
        return _check_gap_bound(trace, lambda k: 4.0 * L * r2 / (k + 1) ** 2, tol, theorem_id)

    if theorem_id == "t2_t3":
        L, r2, mu = _need(params, "L", "R2", "mu")
        omega_tilde = float(params.get("omega_tilde", 1.0))
        mu_tilde = mu / omega_tilde
        rate = 0.5 * math.sqrt(mu_tilde / L)

        def bound(k):
            return min(4.0 * L * r2 / (k + 1) ** 2, L * r2 * math.exp(-rate * k))

        return _check_gap_bound(trace, bound, tol, theorem_id)

    if theorem_id == "c1":
        r2 = _need(params, "R2")
        x0_y0 = _meta_or_param(trace, params, "x0_y0_sq")
        ks = _finite_column(trace, "k").astype(int)
        du = _finite_column(trace, "dist_u_sq")
        dx = _finite_column(trace, "dist_x_sq")
        dy = _finite_column(trace, "dist_y_sq")
        u_bound = 2.0 * r2
        xy_bound = 4.0 * r2 + 2.0 * x0_y0
        rows = []
        for k, a, b, c in zip(ks, du, dx, dy):
            m1 = u_bound + tol - a
            m2 = xy_bound + tol - max(b, c)
            margin = min(m1, m2)
            rows.append({"k": int(k), "measured": float(max(a / 2.0, max(b, c) / 4.0)),
                         "bound": float(xy_bound), "margin": float(margin),
                         "ok": margin >= 0.0})
        return _finish(theorem_id, rows)

    if theorem_id == "c2":
        L, r2 = _need(params, "L", "R2")
        x0_y0 = _meta_or_param(trace, params, "x0_y0_sq")
        r_tilde_sq = 4.0 * r2 + 2.0 * x0_y0
        gaps = _finite_column(trace, "gap")
        ks = _finite_column(trace, "k").astype(int)
        gap_y = trace.column("gap_y") if trace.has_column("gap_y") else None
        rows = []
        for i, (k, gap) in enumerate(zip(ks, gaps)):
            if k < 1:
                continue
            measured = float(gap)
            if gap_y is not None and math.isfinite(gap_y[i]):
                measured = max(measured, float(gap_y[i]))
            if not math.isfinite(measured):
                continue
            bound = L * r_tilde_sq / k ** 2
            margin = bound + tol - measured
            rows.append({"k": int(k), "measured": measured, "bound": float(bound),
                         "margin": float(margin), "ok": margin >= 0.0})
        return _finish(theorem_id, rows)

    if theorem_id == "t6_work":
        L = _need(params, "L")
        ks = _finite_column(trace, "k").astype(int)
        cum_f = _finite_column(trace, "cum_f")
        cum_grad = _finite_column(trace, "cum_grad")
        l_trial = _finite_column(trace, "L_trial")
        j0 = int(_finite_column(trace, "j")[0])
        l_00 = float(l_trial[0]) / 2.0 ** j0
        log_term = math.log2(2.0 * L / l_00)
        rows = []
        for k, cf, cg in zip(ks, cum_f, cum_grad):
            f_bound = 4.0 * k + log_term + 4.0
            g_bound = 2.0 * k + log_term + 2.0
            margin = min(f_bound - cf, g_bound - cg)
            rows.append({"k": int(k), "measured": float(cf), "bound": float(f_bound),
                         "margin": float(margin), "ok": margin >= 0.0})
        return _finish(theorem_id, rows)

    if theorem_id == "t10_calls":
        d_var, r2, eps = _need(params, "D", "R2", "epsilon")
        ks = _finite_column(trace, "k").astype(int)
        cum_stoch = _finite_column(trace, "cum_stoch")
        if len(ks) == 0:
            return _finish(theorem_id, [])
        n_final = int(ks[-1])
        measured = float(cum_stoch[-1])
        bound = 4.0 * (4.0 * d_var * r2 / eps ** 2 + 2.0 * n_final)
        margin = bound + tol - measured
        rows = [{"k": n_final, "measured": measured, "bound": float(bound),
                 "margin": float(margin), "ok": margin >= 0.0}]
        return _finish(theorem_id, rows)

    # t5_halving
    mu = _meta_or_param(trace, params, "mu")
    dist0 = _meta_or_param(trace, params, "y0_dist_sq")
    return _check_gap_bound(trace, lambda k: mu * dist0 / 2.0 ** (k + 1), tol, theorem_id)


_DEFAULT_TOL = {"t1": 1e-10, "t2_t3": 1e-10, "c1": 1e-8, "c2": 1e-8,
                "t6_work": 0.0, "t9_scaling": 0.0, "t10_calls": 0.0, "t5_halving": 1e-9}
