"""The benchmark's workloads: set-up, legs, and the checks on every output.

Each workload is a closed loop run by one process: a pass runs its legs one
after another, each leg waiting for the previous one.  A leg is one library
call or one CLI command sequence.  ``Leg.run`` is the timed part;
``Leg.check`` runs after the pass, untimed, and turns the leg's outputs into
one ``Outcome`` per attempted solve.  README.md gives the reasons for each
workload and leg.

The workload seed shifts every problem seed and rng seed, except for the
lasso (d = 12) and logistic (d = 8) instances, whose optima are frozen for
seed 0 only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from triangle_opt import cli, meta_strategies, solvers, zoo
from triangle_opt.harness import check_bounds
from triangle_opt.prox_geometry import bregman_divergence, recenter
from triangle_opt.solvers import SolverConfig, StoppingRule
from triangle_opt.traces import load_trace

MARGIN_TOL = 1e-8  # cert_margin >= -MARGIN_TOL * max(1, A), as in the unit tests
GAP_TOL = 1e-12

# Failures the program shows today, by leg, and the text their messages
# carry.  They count as failed like any other failure; a failure outside
# this table makes the run incorrect, so a change that breaks a check that
# passed is caught.  README.md explains each one.
KNOWN_DEFECTS = {
    "amst_simplex_6": "CoefficientOverflow",
    "amst_logistic_8": "t6_work",
    "amst_lasso_12": "t6_work",
    "amst_lasso_600": "t6_work",
}


@dataclass
class Outcome:
    """One attempted solve: its counted work, or why it failed."""

    leg: str
    f_calls: int = 0
    grad_calls: int = 0
    stoch_calls: int = 0
    iterations: int = 0
    rows: int = 0      # accepted iterates, k = 0 included
    trials: int = 0    # candidate steps tried, sum of (j + 1) over the rows
    raised: str | None = None
    missed: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.raised is not None or bool(self.missed)

    def problems(self) -> list:
        return ([f"raised {self.raised}"] if self.raised is not None else []) + [
            f"missed {m}" for m in self.missed]

    def known_defect(self) -> bool:
        pattern = KNOWN_DEFECTS.get(self.leg)
        return pattern is not None and all(pattern in p for p in self.problems())

    def work(self) -> tuple:
        return (self.f_calls, self.grad_calls, self.stoch_calls, self.iterations,
                self.rows, self.trials)


@dataclass
class Leg:
    name: str
    run: object     # state -> raw output (timed)
    check: object   # (state, raw) -> list[Outcome] (untimed)


@dataclass
class State:
    problems: dict      # ZooProblem per name; their oracles are wrapped when traced
    values: dict        # everything else the set-up derived


@dataclass
class Workload:
    name: str
    setup: object       # (seed, workdir) -> State
    legs: list
    one_thread: bool = False  # runs on one thread: set up and time it on the fastest CPU


def _r_sq(problem, setup=None) -> float:
    setup = setup or problem.setup
    return bregman_divergence(setup, problem.objective.known_optimum[0], setup.center)


@dataclass(frozen=True)
class Raised:
    """A solve that raised; only its description is kept, not the traceback
    and the frames it holds."""

    error: str


def _attempt(fn):
    try:
        return fn()
    except Exception as exc:  # a raised solve is counted as failed, not fatal
        return Raised(f"{type(exc).__name__}: {exc}")


def _trace_work(outcome: Outcome, trace) -> None:
    outcome.rows = len(trace)
    outcome.trials = int(np.sum(trace.column("j") + 1)) if len(trace) else 0


def _report_outcome(leg: str, report) -> Outcome:
    if isinstance(report, Raised):
        return Outcome(leg, raised=report.error)
    out = Outcome(leg, report.total_f_calls, report.total_grad_calls,
                  report.total_stoch_calls, report.iterations)
    _trace_work(out, report.trace)
    return out


def _margins_ok(report) -> bool:
    margins = report.trace.column("cert_margin")
    scale = np.maximum(1.0, np.abs(report.trace.column("A")))
    return bool(np.all(margins >= -MARGIN_TOL * scale))


def _bound(report, theorem: str, params: dict) -> list:
    verdict = check_bounds(report.trace, theorem, params)
    return [] if verdict.passed else [f"{theorem} failed at k in {verdict.failing_k[:5]}"]


def _library_leg(name: str, solve, checks) -> Leg:
    """A library solve, ``solve(state) -> RunReport``, graded by cert_margin
    on every row and by ``checks``: (state, report) -> list of missed checks."""

    def check(state, report):
        out = _report_outcome(name, report)
        if out.raised is None:
            if not _margins_ok(report):
                out.missed.append("cert_margin below -tol")
            out.missed.extend(checks(state, report))
        return [out]

    return Leg(name, lambda state: _attempt(lambda: solve(state)), check)


def _solve_leg(name: str, problem: str, config, checks, setup_key=None) -> Leg:
    """``run`` on a set-up problem.  ``config`` is a SolverConfig, or a
    function of the state that builds one."""

    def solve(state):
        p = state.problems[problem]
        setup = state.values[setup_key] if setup_key else p.setup
        return solvers.run(p.objective, setup, config(state) if callable(config) else config)

    return _library_leg(name, solve, checks)


def _true_gap(problem, report) -> float:
    return problem.objective.composite_value(report.final_x) - problem.objective.known_optimum[1]


def _certified(problem: str, target: float):
    """Certified target met, and the true gap within it."""

    def checks(state, report):
        missed = []
        if report.certified_gap is None or report.certified_gap > target:
            missed.append(f"certified gap {report.certified_gap} above {target:g}")
        gap = _true_gap(state.problems[problem], report)
        if gap > target + GAP_TOL:
            missed.append(f"true gap {gap:.3e} above {target:g}")
        return missed

    return checks


def _lipschitz(state, problem: str) -> float:
    return state.problems[problem].objective.smoothness_meta["L"]


def _t1(problem: str, r_sq_key: str):
    return lambda state, report: _bound(report, "t1", {"L": _lipschitz(state, problem),
                                                      "R2": state.values[r_sq_key]})


def _t6(problem: str):
    return lambda state, report: _bound(report, "t6_work", {"L": _lipschitz(state, problem)})


def _all(*checks):
    return lambda state, report: [m for c in checks for m in c(state, report)]


# --- small_certified ------------------------------------------------------

UMST_EPS = 1e-3
AMST_CERT_EPS = 1e-6
REG_EPS = 1e-4
RESTARTS = 10


def _small_setup(seed: int, workdir: str) -> State:
    mk = zoo.make_problem
    problems = {
        "holder": mk("holder_norm_power", dimension=5, seed=seed, p=1.5),
        "quad50": mk("quadratic", dimension=50, seed=seed),
        "logistic8": mk("logistic", dimension=8, seed=0),
        "lasso12": mk("lasso", dimension=12, seed=0),
        "simplex6": mk("simplex_linear", dimension=6, seed=seed),
        "restart10": mk("quadratic", dimension=10, seed=seed + 1, lam_min=0.1),
        "reg10": mk("quadratic", dimension=10, seed=seed, lam_min=1e-8),
    }
    holder_setup = recenter(problems["holder"].setup, 10.0 * np.ones(5) / math.sqrt(5.0))
    values = {
        "holder_setup": holder_setup,
        "holder_r_sq": _r_sq(problems["holder"], holder_setup),
        "quad50_r_sq": _r_sq(problems["quad50"]),
        "simplex6_r_sq": _r_sq(problems["simplex6"]),
        "reg10_r_sq": _r_sq(problems["reg10"]),
    }
    return State(problems, values)


def _restart_leg() -> Leg:
    name = "restart_quadratic_10"

    def run(state):
        p = state.problems["restart10"]
        meta = p.objective.smoothness_meta
        return _attempt(lambda: meta_strategies.restart_run(
            p.objective, p.setup, L=meta["L"], mu=meta["mu"], omega=1.0, K=RESTARTS))

    def check(state, report):
        if isinstance(report, Raised):
            return [_report_outcome(name, report)]
        # each inner exact-L run records N_bar + 1 rows, one trial each
        rows = report.iterations + RESTARTS
        out = Outcome(name, report.total_f_calls, report.total_grad_calls,
                      report.total_stoch_calls, report.iterations, rows, rows)
        out.missed.extend(_bound(report, "t5_halving", {}))
        if len(report.trace) != RESTARTS:
            out.missed.append(f"{len(report.trace)} restart rows, expected {RESTARTS}")
        return [out]

    return Leg(name, run, check)


def _regularized_solve(state):
    p = state.problems["reg10"]
    r_sq = state.values["reg10_r_sq"]
    reg, mu_reg = meta_strategies.regularize(p.objective, p.setup, epsilon=REG_EPS, R_sq=r_sq)
    config = SolverConfig(mode="amst_adaptive", mu=mu_reg, epsilon=REG_EPS / 4.0,
                          max_iters=20_000,
                          stopping=StoppingRule(kind="certified_gap", r_sq=r_sq))
    return solvers.run(reg, p.setup, config)


def _regularized_checks(state, report):
    missed = []
    if report.certified_gap is None or report.certified_gap > REG_EPS / 2.0:
        missed.append(f"certified gap {report.certified_gap} above {REG_EPS / 2:g}")
    gap = _true_gap(state.problems["reg10"], report)
    if gap > REG_EPS:
        missed.append(f"original gap {gap:.3e} above {REG_EPS:g}")
    return missed


# Library solves at n <= 50, where per-iteration Python work outweighs the
# oracle: stresses solvers, prox_geometry and the observer, barely BLAS.
# Arrays this small keep BLAS on the calling thread, so the legs use one CPU.
SMALL_CERTIFIED = Workload(
    name="small_certified",
    setup=_small_setup,
    one_thread=True,
    legs=[
        _solve_leg("umst_holder_5", "holder",
                   lambda state: SolverConfig(
                       mode="umst_universal", epsilon=UMST_EPS, max_iters=40_000,
                       stopping=StoppingRule(kind="certified_gap",
                                             r_sq=state.values["holder_r_sq"])),
                   _certified("holder", UMST_EPS), setup_key="holder_setup"),
        _solve_leg("mst_quadratic_50", "quad50",
                   SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=2001),
                   _t1("quad50", "quad50_r_sq")),
        # amst with an epsilon certifies 2*epsilon (the solver's total-budget reading)
        _solve_leg("amst_quadratic_50_certified", "quad50",
                   lambda state: SolverConfig(
                       mode="amst_adaptive", epsilon=AMST_CERT_EPS, max_iters=100_000,
                       stopping=StoppingRule(kind="certified_gap",
                                             r_sq=state.values["quad50_r_sq"])),
                   _all(_certified("quad50", 2.0 * AMST_CERT_EPS), _t6("quad50"))),
        _solve_leg("amst_logistic_8", "logistic8",
                   SolverConfig(mode="amst_adaptive", max_iters=3000), _t6("logistic8")),
        _solve_leg("amst_lasso_12", "lasso12",
                   SolverConfig(mode="amst_adaptive", max_iters=3000), _t6("lasso12")),
        _solve_leg("mst_entropy_simplex_6", "simplex6",
                   SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=3000),
                   _t1("simplex6", "simplex6_r_sq")),
        # raises CoefficientOverflow at k = 995 (a known defect): counted as failed
        _solve_leg("amst_simplex_6", "simplex6",
                   SolverConfig(mode="amst_adaptive", max_iters=1200), _t6("simplex6")),
        _restart_leg(),
        _library_leg("regularize_quadratic_10", _regularized_solve, _regularized_checks),
    ],
)


# --- CLI legs -------------------------------------------------------------

_SEED_LINE = re.compile(
    r"^seed (-?\d+): (?:error: (?P<error>.*)|(?P<iters>\d+) iterations"
    r"(?:, final gap (?P<gap>\S+?))?(?:, certified gap bound \S+?)?"
    r", f/grad/stoch calls (?P<f>\d+)/(?P<g>\d+)/(?P<s>\d+)(?: -> .*)?)$")


@dataclass
class CliRun:
    solve_rc: int
    check_rcs: list
    stdout: str


def _cli_leg(name: str, mean_gap_limit=None) -> Leg:
    """``triangle-opt solve`` on the config the set-up wrote for this leg,
    then ``check`` on every trace it wrote.  Each seed is one attempted solve."""

    def run(state):
        config_path, trace_paths, check_args = state.values[name]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            solve_rc = cli.main(["solve", "--config", config_path])
            check_rcs = [cli.main(["check", "--trace", path] + check_args)
                         for path in trace_paths.values()]
        return CliRun(solve_rc, check_rcs, buf.getvalue())

    def check(state, raw: CliRun):
        _, trace_paths, _ = state.values[name]
        lines = {}
        for line in raw.stdout.splitlines():
            match = _SEED_LINE.match(line)
            if match:
                lines[int(match.group(1))] = match
        outcomes, gaps = [], []
        for (seed, path), check_rc in zip(trace_paths.items(), raw.check_rcs):
            match = lines.get(seed)
            if match is None or match.group("error") is not None:
                why = match.group("error") if match else f"no result line (exit {raw.solve_rc})"
                outcomes.append(Outcome(name, raised=why))
                continue
            out = Outcome(name, int(match.group("f")), int(match.group("g")),
                          int(match.group("s")), int(match.group("iters")))
            _trace_work(out, load_trace(path))
            os.remove(path)
            if check_rc == 1:
                out.raised = "check exited 1"
            elif check_rc != 0:
                out.missed.append(f"check exited {check_rc}")
            if match.group("gap") is not None:
                gaps.append(float(match.group("gap")))
            outcomes.append(out)
        if mean_gap_limit is not None:
            ok = len(gaps) == len(trace_paths) and float(np.mean(gaps)) <= mean_gap_limit
            if not ok:
                for out in outcomes:
                    out.missed.append(f"mean final gap above {mean_gap_limit:g}")
        return outcomes

    return Leg(name, run, check)


def _write_config(workdir: str, name: str, config: dict, ext: str, seeds: list,
                  check_args: list) -> tuple:
    """Write a CLI leg's experiment config: (config path, trace path per
    seed, ``check`` arguments)."""
    pattern = os.path.join(workdir, f"{name}_{{seed}}.{ext}")
    config = dict(config, seeds=seeds, output=pattern)
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path, {s: pattern.replace("{seed}", str(s)) for s in seeds}, check_args


# --- large_matrix ---------------------------------------------------------

LARGE_ITERS = 400
CLI_ITERS = 300


def _large_setup(seed: int, workdir: str) -> State:
    problems = {
        "quad1000": zoo.make_problem("quadratic", dimension=1000, seed=seed),
        # seed + 1 is never the canonical lasso instance: no known optimum
        "lasso600": zoo.make_problem("lasso", dimension=600, seed=seed + 1),
    }
    values = {
        "quad1000_r_sq": _r_sq(problems["quad1000"]),
        "cli_amst_quadratic_500": _write_config(
            workdir, "cli_amst_quadratic_500",
            {"problem": {"kind": "quadratic", "dimension": 500, "seed": seed},
             "solver": {"mode": "amst_adaptive"}, "max_iters": CLI_ITERS},
            "json", [3 * seed, 3 * seed + 1, 3 * seed + 2],
            # the quadratic's L is its largest eigenvalue, 1.0
            ["--theorem", "t6_work", "--L", "1.0"]),
    }
    return State(problems, values)


# Library and CLI solves at n = 500-1000, bound by matrix products: stresses
# oracles and zoo set-up, and BLAS threads against the seed pool.
LARGE_MATRIX = Workload(
    name="large_matrix",
    setup=_large_setup,
    legs=[
        _solve_leg("mst_quadratic_1000", "quad1000",
                   SolverConfig(mode="mst_exact_L", L_known=1.0, max_iters=LARGE_ITERS),
                   _t1("quad1000", "quad1000_r_sq")),
        _solve_leg("amst_quadratic_1000", "quad1000",
                   SolverConfig(mode="amst_adaptive", max_iters=LARGE_ITERS), _t6("quad1000")),
        _solve_leg("amst_lasso_600", "lasso600",
                   SolverConfig(mode="amst_adaptive", max_iters=LARGE_ITERS), _t6("lasso600")),
        _cli_leg("cli_amst_quadratic_500"),
    ],
)


# --- cli_stochastic -------------------------------------------------------

# (leg, dimension, epsilon, number of seeds)
_STOCHASTIC_LEGS = (("cli_sumst_quadratic_20", 20, 1e-2, 20),
                    ("cli_sumst_quadratic_50", 50, 5e-3, 4))
NOISE_D = 1.0


def _stochastic_setup(seed: int, workdir: str) -> State:
    values = {}
    for name, dim, eps, n_seeds in _STOCHASTIC_LEGS:
        r_sq = _r_sq(zoo.make_problem("quadratic", dimension=dim, seed=seed))
        values[name] = _write_config(
            workdir, name,
            {"problem": {"kind": "quadratic", "dimension": dim, "seed": seed},
             "solver": {"mode": "sumst_stochastic_universal", "D": NOISE_D,
                        "stopping": {"kind": "certified_gap", "r_sq": r_sq}},
             "epsilon": eps, "max_iters": 5000},
            "csv", [n_seeds * seed + i for i in range(n_seeds)],
            ["--theorem", "t10_calls", "--D", repr(NOISE_D), "--R2", repr(r_sq),
             "--epsilon", repr(eps)])
    return State({}, values)


# CLI sumst solves with growing gaussian mini-batches: drawing releases the
# GIL, so the seed pool helps here, unlike on large_matrix.
CLI_STOCHASTIC = Workload(
    name="cli_stochastic",
    setup=_stochastic_setup,
    legs=[_cli_leg(name, mean_gap_limit=2.0 * eps)
          for name, _, eps, _ in _STOCHASTIC_LEGS],
)

WORKLOADS = {w.name: w for w in (SMALL_CERTIFIED, LARGE_MATRIX, CLI_STOCHASTIC)}
