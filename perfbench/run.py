"""Benchmark of triangle-opt: one workload, one process, one JSON result.

    python3 perfbench/run.py --workload small_certified --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The run sets up the workload
several times (``setup_s`` is the median), then runs passes over the
workload's legs until ``--seconds`` have gone by since it started,
checking every output after each pass.  The last line of stdout is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing.  With ``--trace 1`` passes alternate between untraced and traced;
the metrics are the per-layer ones from the traced passes, and
``trace_overhead`` compares the two kinds.  A per-leg breakdown and a
description of the machine go to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_MIN = 3          # set-ups before the first pass
SETUP_SHARE = 0.1      # further set-ups between passes, up to this share of the time
PROBE_LOOPS = 40_000   # about 3 ms of interpreted Python per probe of a CPU
PROBE_REPEATS = 2


def _import_program() -> None:
    package = SRC / "triangle_opt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no triangle_opt sources at {package}")
    sys.path.insert(0, str(SRC))
    import triangle_opt
    if Path(triangle_opt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: triangle_opt imported from {triangle_opt.__file__}, "
                         f"not from {package}")


def _machine(state) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    largest = {}
    for name, problem in state.problems.items():
        arrays = [v for v in problem.data.values() if isinstance(v, np.ndarray)]
        largest[name] = max((a.nbytes for a in arrays), default=0) / 1e6
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                       "unset (OpenBLAS default: one per core)"),
        "seed_pool_cap": os.cpu_count(),
        "largest_array_mb": largest,
    }


def _time_setup(workload, seed: int, workdir: str, times: list):
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir)
    times.append(time.perf_counter() - t0)
    return state


def _tally(outcomes, completed_legs) -> dict:
    counts = {key: sum(getattr(o, key) for o in outcomes)
              for key in ("f_calls", "grad_calls", "stoch_calls", "iterations", "rows", "trials")}
    counts["f_calls_completed"] = sum(o.f_calls for o in outcomes if o.leg in completed_legs)
    return counts


def _probe(cpu: int) -> float:
    """Move to ``cpu`` and time a fixed loop of interpreted Python there."""
    os.sched_setaffinity(0, {cpu})
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_fastest_cpu(cpus) -> None:
    """Pin this process to whichever of ``cpus`` runs a short loop fastest
    right now.

    On a shared host, a CPU can slow by up to half for seconds at a time
    while another tenant runs beside it, and the CPUs mostly slow at
    different times.  A one-thread workload that stays on a slowed CPU
    measures its neighbour.  Choosing before each leg keeps it on the least
    slowed CPU; the program's own work is timed as before.  README.md gives
    the measurements behind this."""
    os.sched_setaffinity(0, {min(cpus, key=_probe)})


@contextlib.contextmanager
def fastest_cpu(workload):
    """Run the block on the fastest CPU when ``workload`` runs one thread."""
    cpus = sorted(os.sched_getaffinity(0))
    if not workload.one_thread or len(cpus) < 2:
        yield
        return
    pin_to_fastest_cpu(cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def run_pass(workload, state, probes=None, leg_walls=None):
    """One timed pass over the workload's legs; traced when ``probes`` is
    given.  Returns the pass's wall time and each leg's raw output.

    Each leg of a one-thread workload moves to the fastest CPU before it is
    timed, so the pass's wall is the sum of its legs' walls."""
    if probes is not None:
        probes.install(state.problems.values())
    raws = []
    wall = 0.0
    try:
        for leg in workload.legs:
            if probes is not None:
                probes.tracer.leg = leg.name
            with fastest_cpu(workload):
                t_leg = time.perf_counter()
                raws.append(leg.run(state))
                leg_wall = time.perf_counter() - t_leg
            wall += leg_wall
            if leg_walls is not None:
                leg_walls[leg.name].append(leg_wall)
    finally:
        if probes is not None:
            probes.tracer.restore()
    return wall, raws


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str,
            log=sys.stderr) -> dict:
    from probes import PER_LAYER, Probes, layer_metrics
    from spans import TOTAL_NS, Tracer

    start = time.perf_counter()  # --seconds counts set-up too, so a run's length is fixed
    setup_make_s = 0.0
    setup_times = []
    if trace:
        # one traced set-up, for the time spent constructing zoo problems
        tracer = Tracer()
        Probes(tracer).install()
        try:
            state = workload.setup(seed, workdir)
        finally:
            tracer.restore()
        setup_make_s = sum(e[TOTAL_NS] for (_, name), e in tracer.stats().items()
                           if name == "zoo.make_problem") / 1e9
    else:
        with fastest_cpu(workload):
            for _ in range(SETUP_MIN):
                state = None  # one set-up alive at a time, for peak_rss_mb
                state = _time_setup(workload, seed, workdir, setup_times)
    print(json.dumps({"workload": workload.name, "seed": seed, "machine": _machine(state)}),
          file=log)

    walls = {False: [], True: []}
    leg_walls = {leg.name: [] for leg in workload.legs}
    layer_passes = []
    attempted = failed = 0
    errors = []
    reference = None
    min_passes = 4 if trace else 3
    n = 0
    while n < min_passes or time.perf_counter() - start < seconds:
        traced = trace and n % 2 == 1
        probes = Probes(Tracer()) if traced else None
        raws = outcomes = None  # one pass's outputs alive at a time, for peak_rss_mb
        wall, raws = run_pass(workload, state, probes, None if traced else leg_walls)
        walls[traced].append(wall)

        outcomes = [o for leg, raw in zip(workload.legs, raws) for o in leg.check(state, raw)]
        attempted += len(outcomes)
        failed += sum(o.failed for o in outcomes)
        for o in outcomes:
            if o.failed and not o.known_defect():
                errors.extend(f"pass {n} {o.leg}: {p}" for p in o.problems())
        signature = [(o.leg, o.raised is None, o.work()) for o in outcomes]
        if reference is None:
            reference = signature
            for o in outcomes:
                if o.known_defect():
                    print(f"{o.leg}: known defect: {'; '.join(o.problems())}", file=log)
        elif signature != reference:
            errors.append(f"pass {n} ({'traced' if traced else 'untraced'}): "
                          "oracle, iteration or trial counts differ from pass 0")
        completed = {leg.name for leg in workload.legs} - {o.leg for o in outcomes
                                                           if o.raised is not None}
        counts = _tally(outcomes, completed)
        iterations = {leg.name: sum(o.iterations for o in outcomes if o.leg == leg.name)
                      for leg in workload.legs}
        if traced:
            tracer = probes.tracer
            stats = tracer.stats()
            for leg in completed:
                prox = stats.get((leg, "prox_geometry.composite_prox_solve"), (0,))[0]
                trials = sum(o.trials for o in outcomes if o.leg == leg)
                if prox != trials:
                    errors.append(f"pass {n} {leg}: {prox} prox spans for {trials} trials")
            layer_passes.append(layer_metrics(stats, probes, tracer.root_ns, wall,
                                              setup_make_s, counts, completed))
        n += 1
        # cheap set-ups are repeated across the whole run, so that their
        # median sees the same swings in machine speed as the passes do
        if not trace:
            with fastest_cpu(workload):
                while sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start):
                    _time_setup(workload, seed, workdir, setup_times)

    for leg, times in leg_walls.items():
        wall = statistics.median(times)
        per_iter = (f", {wall / iterations[leg] * 1e6:.1f} us/iteration"
                    if iterations[leg] else "")
        print(f"{leg}: median {wall:.4f} s untraced over {len(times)} passes, "
              f"{iterations[leg]} iterations{per_iter}", file=log)
    print("pass walls (s): untraced " + " ".join(f"{w:.3f}" for w in walls[False])
          + "; traced " + " ".join(f"{w:.3f}" for w in walls[True]), file=log)
    if setup_times:
        print(f"set-up: {len(setup_times)} times, quartiles "
              + " ".join(f"{v:.5f}" for v in statistics.quantiles(setup_times, n=4)), file=log)
    for message in errors[:20]:
        print(message, file=log)

    if trace:
        units = dict(PER_LAYER)
        values = {name: statistics.fmean(p[name] for p in layer_passes)
                  for name in units if name != "trace_overhead"}
        values["trace_overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        oracle_calls = counts["f_calls"] + counts["grad_calls"] + counts["stoch_calls"]
        metrics = {
            "solve_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "oracle_calls": {"value": oracle_calls, "unit": "count"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="triangle-opt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # the seed pool runs at the program's default width
    os.environ.pop("TRIANGLE_OPT_THREADS", None)
    # on SIGTERM, unwind so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
