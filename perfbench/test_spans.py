"""Tests of the benchmark's span accounting.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from probes import Probes
from run import run_pass
from spans import COUNT, SELF_NS, TOTAL_NS, Tracer, covered_ns
from triangle_opt import cli
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=_clock(0, 10, 30, 40, 70, 100), keep=True)
    leaf = tracer.wrap(lambda: None, "layer.leaf")

    def outer():
        leaf()
        leaf()

    tracer.wrap(outer, "layer.outer")()
    stats = tracer.stats()
    assert stats[("", "layer.outer")][TOTAL_NS] == 100
    assert stats[("", "layer.outer")][SELF_NS] == 100 - 20 - 30
    assert stats[("", "layer.leaf")][COUNT] == 2
    assert stats[("", "layer.leaf")][SELF_NS] == 50
    assert tracer.root_ns == 100
    outer_span = next(s for s in tracer.spans if s.name == "layer.outer")
    leaves = [s for s in tracer.spans if s.name == "layer.leaf"]
    assert all(s.parent_id == outer_span.span_id for s in leaves)
    assert all(s.request_id == outer_span.request_id for s in leaves)


def test_covered_ns_takes_the_union_clipped_to_the_parent():
    assert covered_ns([(5, 20), (10, 30), (40, 50), (90, 120)], 0, 100) == 25 + 10 + 10
    assert covered_ns([], 0, 100) == 0


def test_patch_is_undone_by_restore():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = Tracer()
    tracer.patch(Owner, "f", "layer.f")
    assert Owner.f(1) == 2 and Owner.f is not original
    tracer.restore()
    assert Owner.f is original
    assert tracer.stats()[("", "layer.f")][COUNT] == 1


def test_stacks_are_per_thread_under_the_seed_pool(tmp_path, monkeypatch):
    monkeypatch.delenv("TRIANGLE_OPT_THREADS", raising=False)
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({
        "problem": {"kind": "quadratic", "dimension": 8, "seed": 0},
        "solver": {"mode": "amst_adaptive"}, "seeds": [0, 1, 2], "max_iters": 20,
        "output": str(tmp_path / "trace_{seed}.csv")}))
    tracer = Tracer(keep=True)
    probes = Probes(tracer)
    probes.install()
    try:
        assert cli.main(["solve", "--config", str(config)]) == 0
    finally:
        tracer.restore()

    spans = {s.span_id: s for s in tracer.spans}
    fan = next(s for s in spans.values() if s.name == "harness.run_experiment")
    seed_runs = [s for s in spans.values() if s.name == "solvers.run"]
    assert len(seed_runs) == 3 == probes.seed_runs
    assert len({s.request_id for s in seed_runs}) == 3
    for run_span in seed_runs:
        assert run_span.parent_id == fan.span_id
        assert run_span.request_id == run_span.span_id
        assert run_span.thread != fan.thread
        members = [s for s in spans.values() if s.request_id == run_span.request_id]
        assert len(members) > 1
        for s in members:
            assert s.thread == run_span.thread
            assert run_span.start_ns <= s.start_ns <= s.end_ns <= run_span.end_ns
            if s is not run_span:
                assert spans[s.parent_id].request_id == run_span.request_id
    # every span on the main thread belongs to the one CLI request
    main_root = next(s for s in spans.values() if s.name == "cli.main")
    assert all(s.request_id == main_root.request_id
               for s in spans.values() if s.thread == threading.get_ident())
    # the seed pool ran the identical amst seeds: one distinct result
    assert probes.distinct_results == 1
    assert fan.self_ns < fan.end_ns - fan.start_ns


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_cover_the_timed_wall(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(0, str(tmp_path))
    probes = Probes(Tracer())
    wall, raws = run_pass(workload, state, probes)
    assert probes.tracer.root_ns / 1e9 >= 0.9 * wall
    # the benchmark's checks still hold on a traced pass
    for leg, raw in zip(workload.legs, raws):
        for outcome in leg.check(state, raw):
            assert not outcome.failed or outcome.known_defect(), outcome.problems()


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_certified",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
