"""Outside-in probes on triangle_opt, and the per-layer metrics they give.

``Probes.install`` wraps, for one traced pass, the calls into each layer of
the package (the modules ``zoo``, ``oracles``, ``prox_geometry``,
``solvers``, ``meta_strategies``, ``traces``, ``harness`` and ``cli``).  A
wrapper replaces the name in the module that calls it, since that is where
the call is looked up; nothing under ``src/`` is edited.  Span names are
``<layer>.<function>``, so a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np

from spans import COUNT, REMOTE_NS, SELF_NS, TOTAL_NS, Tracer
from triangle_opt import cli, harness, meta_strategies, solvers, zoo
from triangle_opt.traces import CSV_COLUMNS

# (module, attribute, span name): the calls into each layer
_MODULE_PROBES = (
    (solvers, "run", "solvers.run"),
    (meta_strategies, "run", "solvers.run"),
    (solvers, "fold_estimate", "solvers.fold_estimate"),
    (solvers, "alpha_next", "solvers.alpha_next"),
    (solvers, "_record_row", "solvers._record_row"),
    (solvers, "composite_prox_solve", "prox_geometry.composite_prox_solve"),
    (solvers, "estimate_value", "prox_geometry.estimate_value"),
    (solvers, "minibatch_gradient", "oracles.minibatch_gradient"),
    (solvers, "substream", "oracles.substream"),
    (meta_strategies, "restart_run", "meta_strategies.restart_run"),
    (cli, "main", "cli.main"),
    (cli, "load_experiment", "harness.load_experiment"),
    (cli, "check_bounds", "harness.check_bounds"),
    (cli, "load_trace", "traces.load_trace"),
)

PER_LAYER = (
    ("zoo.make_problem_s", "s"),
    ("oracles.f_s", "s"), ("oracles.grad_s", "s"),
    ("oracles.f_calls", "count"), ("oracles.grad_calls", "count"),
    ("oracles.stoch_calls", "count"), ("oracles.f_evals_total", "count"),
    ("oracles.counted_f_ratio", "ratio"),
    ("oracles.minibatch_s", "s"), ("oracles.substream_s", "s"),
    ("oracles.draws_per_s", "1/s"),
    ("prox_geometry.prox_s", "s"), ("prox_geometry.prox_calls", "count"),
    ("prox_geometry.estimate_value_s", "s"),
    ("solvers.self_s", "s"), ("solvers.fold_s", "s"), ("solvers.alpha_next_s", "s"),
    ("solvers.observer_s", "s"), ("solvers.observer_self_s", "s"),
    ("solvers.observer_share", "ratio"),
    ("solvers.iterations", "count"), ("solvers.trials", "count"),
    ("solvers.accept_ratio", "ratio"), ("solvers.us_per_iter", "us"),
    ("meta_strategies.restart_s", "s"), ("meta_strategies.regularize_s", "s"),
    ("traces.emit_s", "s"), ("traces.load_s", "s"), ("traces.rows", "count"),
    ("traces.bytes", "bytes"),
    ("harness.load_experiment_s", "s"), ("harness.check_bounds_s", "s"),
    ("harness.seed_runs", "count"), ("harness.distinct_results", "count"),
    ("harness.distinct_ratio", "ratio"), ("harness.fanout_speedup", "ratio"),
    ("cli.self_s", "s"),
    ("spans.busy_s", "s"), ("spans.coverage", "ratio"),
    ("trace_overhead", "ratio"),
)


def _report_digest(report) -> bytes:
    h = hashlib.sha256(np.ascontiguousarray(report.final_x).tobytes())
    for name in CSV_COLUMNS:
        h.update(np.asarray(report.trace.data.get(name, ()), dtype=float).tobytes())
    return h.digest()


class Probes:
    """The wrappers of one traced pass, and the tallies their hooks keep."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rows_emitted = 0
        self.bytes_emitted = 0
        self.seed_runs = 0
        self.distinct_results = 0
        self._digests: list = []
        self._lock = threading.Lock()

    def install(self, problems=()) -> None:
        t = self.tracer
        for module, attr, name in _MODULE_PROBES:
            t.patch(module, attr, name)
        t.patch(zoo, "make_problem", "zoo.make_problem", after=self._problem_made)
        t.patch(harness, "make_problem", "zoo.make_problem", after=self._problem_made)
        t.patch(meta_strategies, "regularize", "meta_strategies.regularize",
                after=self._regularized)
        t.patch(harness, "run", "solvers.run", after=self._seed_run)
        t.patch(harness, "emit_trace", "traces.emit_trace", after=self._emitted)
        t.patch(cli, "run_experiment", "harness.run_experiment", fanout=True,
                after=self._fanned_out)
        for problem in problems:
            self.wrap_objective(problem.objective)

    def wrap_objective(self, objective, prefix: str = "oracles", value: str = "f",
                       grad: str = "grad") -> None:
        self.tracer.patch(objective, "smooth_value", f"{prefix}.{value}")
        self.tracer.patch(objective, "smooth_grad", f"{prefix}.{grad}")

    def _problem_made(self, problem, *args, **kwargs) -> None:
        self.wrap_objective(problem.objective)

    def _regularized(self, result, *args, **kwargs) -> None:
        # the regularized oracles add the Bregman term around the base
        # oracles, which stay recorded as oracles.f / oracles.grad
        self.wrap_objective(result[0], "meta_strategies", "reg_value", "reg_grad")

    def _seed_run(self, report, *args, **kwargs) -> None:
        digest = _report_digest(report)
        with self._lock:
            self.seed_runs += 1
            self._digests.append(digest)

    def _emitted(self, path, trace, *args, **kwargs) -> None:
        size = os.path.getsize(path)
        with self._lock:
            self.rows_emitted += len(trace)
            self.bytes_emitted += size

    def _fanned_out(self, results, *args, **kwargs) -> None:
        with self._lock:
            self.distinct_results += len(set(self._digests))
            self._digests.clear()


def _by_name(stats: dict, legs=None) -> dict:
    out: dict = {}
    for (leg, name), entry in stats.items():
        if legs is not None and leg not in legs:
            continue
        into = out.setdefault(name, [0, 0, 0, 0])
        for i, v in enumerate(entry):
            into[i] += v
    return out


def layer_metrics(stats: dict, probes: Probes, root_ns: int, pass_wall_s: float,
                  setup_make_s: float, counts: dict, completed_legs) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    ``counts`` holds the program's own per-pass tallies over the solves
    that returned (f_calls, grad_calls, stoch_calls, iterations, trials,
    rows), and f_calls_completed, the counted f calls of the legs named in
    ``completed_legs``, whose solves all returned: a solve that raises takes
    its counts with it, so the counted/total ratio leaves its leg out.
    """
    by = _by_name(stats)
    done = _by_name(stats, set(completed_legs))

    def total(name, table=by):
        return table.get(name, (0, 0, 0, 0))[TOTAL_NS] / 1e9

    def self_s(name):
        return by.get(name, (0, 0, 0, 0))[SELF_NS] / 1e9

    def calls(name, table=by):
        return table.get(name, (0, 0, 0, 0))[COUNT]

    fan = by.get("harness.run_experiment", (0, 0, 0, 0))
    minibatch_s = total("oracles.minibatch_gradient")
    f_evals_done = calls("oracles.f", done)
    observer_s = total("solvers._record_row")
    busy_ns = sum(entry[SELF_NS] for entry in by.values())
    return {
        "zoo.make_problem_s": setup_make_s + total("zoo.make_problem"),
        "oracles.f_s": total("oracles.f"),
        "oracles.grad_s": total("oracles.grad"),
        "oracles.f_calls": counts["f_calls"],
        "oracles.grad_calls": counts["grad_calls"],
        "oracles.stoch_calls": counts["stoch_calls"],
        "oracles.f_evals_total": calls("oracles.f"),
        "oracles.counted_f_ratio": (counts["f_calls_completed"] / f_evals_done
                                    if f_evals_done else 0.0),
        "oracles.minibatch_s": minibatch_s,
        "oracles.substream_s": total("oracles.substream"),
        "oracles.draws_per_s": counts["stoch_calls"] / minibatch_s if minibatch_s else 0.0,
        "prox_geometry.prox_s": total("prox_geometry.composite_prox_solve"),
        "prox_geometry.prox_calls": calls("prox_geometry.composite_prox_solve"),
        "prox_geometry.estimate_value_s": total("prox_geometry.estimate_value"),
        "solvers.self_s": self_s("solvers.run"),
        "solvers.fold_s": total("solvers.fold_estimate"),
        "solvers.alpha_next_s": total("solvers.alpha_next"),
        "solvers.observer_s": observer_s,
        "solvers.observer_self_s": self_s("solvers._record_row"),
        "solvers.observer_share": observer_s / pass_wall_s,
        "solvers.iterations": counts["iterations"],
        "solvers.trials": counts["trials"],
        "solvers.accept_ratio": counts["rows"] / counts["trials"] if counts["trials"] else 0.0,
        "solvers.us_per_iter": (total("solvers.run") * 1e6 / counts["iterations"]
                                if counts["iterations"] else 0.0),
        "meta_strategies.restart_s": self_s("meta_strategies.restart_run"),
        "meta_strategies.regularize_s": sum(
            self_s(name) for name in ("meta_strategies.regularize",
                                      "meta_strategies.reg_value",
                                      "meta_strategies.reg_grad")),
        "traces.emit_s": total("traces.emit_trace"),
        "traces.load_s": total("traces.load_trace"),
        "traces.rows": probes.rows_emitted,
        "traces.bytes": probes.bytes_emitted,
        "harness.load_experiment_s": self_s("harness.load_experiment"),
        "harness.check_bounds_s": total("harness.check_bounds"),
        "harness.seed_runs": probes.seed_runs,
        "harness.distinct_results": probes.distinct_results,
        "harness.distinct_ratio": probes.distinct_results / probes.seed_runs
        if probes.seed_runs else 0.0,
        "harness.fanout_speedup": fan[REMOTE_NS] / fan[TOTAL_NS] if fan[TOTAL_NS] else 0.0,
        "cli.self_s": self_s("cli.main"),
        "spans.busy_s": busy_ns / 1e9,
        "spans.coverage": root_ns / 1e9 / pass_wall_s,
    }
