"""Smoke tests: the stochastic mini-batch demo runs end to end and reports a
passing call budget; the trace digest tool prints the same digests twice; the
call counter prints one line per digest case and keeps the hot loop within
its budget of interpreter calls per row; the cache drift demo prints one
comparison per imaged case; the rate, adaptive and restart demos grade every
bound they print as a pass; and the reference optima script reprints the
optima frozen in the zoo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from triangle_opt import ZOO_KINDS, make_problem
from triangle_opt.zoo import _FROZEN_OPTIMA

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name, args, verdicts", [
    ("quadratic_rates.py", ("--iters", "50", "--dimension", "10"), ("t1", "c1", "t2_t3")),
    ("adaptive_and_universal.py", ("--iters", "50"), ("t6_work", "log-log slope")),
    ("restarts_and_entropy_simplex.py", ("--restarts", "2"), ("t5_halving", "c1 distance")),
])
def test_bound_demos_pass_every_check_they_print(name, args, verdicts):
    out = _run_demo(name, *args)
    assert "FAIL" not in out
    for verdict in verdicts:
        assert re.search(rf"^{verdict}.*pass", out, re.MULTILINE), (verdict, out)


def test_reference_optima_script_reprints_the_frozen_optima():
    printed = {}
    exec(_run_demo("precompute_reference_optima.py"), {"np": np}, printed)
    printed = printed["_FROZEN_OPTIMA"]
    assert printed.keys() == _FROZEN_OPTIMA.keys()
    for key, (x_hat, f_star) in printed.items():
        frozen_x, frozen_f = _FROZEN_OPTIMA[key]
        np.testing.assert_allclose(x_hat, frozen_x, rtol=0.0, atol=1e-12, err_msg=str(key))
        assert f_star == pytest.approx(frozen_f, rel=1e-14, abs=0.0), key


def test_stochastic_minibatch_demo_passes():
    out = _run_demo("stochastic_minibatch.py", "--seeds", "2")
    assert "stochastic call budget on every seed: pass" in out


def test_trace_digest_is_reproducible_with_one_line_per_case():
    outputs = [_run_demo("trace_digest.py", "--iters", "15") for _ in range(2)]
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    # eight configurations per zoo kind, and again for each kind with a
    # linear image run without it
    imaged = sum(make_problem(kind).objective.linear is not None for kind in ZOO_KINDS)
    assert len(lines) == 8 * (len(ZOO_KINDS) + imaged)
    assert len({line.split()[0] for line in lines}) == len(lines)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def test_call_count_prints_one_line_per_digest_case():
    lines = _run_demo("call_count.py", "--iters", "15").splitlines()
    imaged = sum(make_problem(kind).objective.linear is not None for kind in ZOO_KINDS)
    assert len(lines) == 8 * (len(ZOO_KINDS) + imaged)
    for line in lines:
        assert re.fullmatch(r"\S+ rows 15 py \d+\.\d c \d+\.\d calls \d+\.\d", line), line


@pytest.mark.parametrize("case, budget", [("quadratic/amst", 60.0),
                                          ("holder_norm_power/umst", 65.0)])
def test_calls_per_row_stay_within_the_hot_loop_budget(case, budget):
    # interpreter calls are the cost of an iteration at n <= 50, and their
    # count repeats exactly; the parent of the block observer made 108.3 and
    # 95.4 calls per row on these cases
    line = _run_demo("call_count.py", "--iters", "300", "--case", case)
    match = re.fullmatch(rf"{re.escape(case)} rows 300 py \S+ c \S+ calls (\S+)\n", line)
    assert match, line
    assert float(match.group(1)) <= budget, line


def test_cache_drift_demo_prints_one_line_per_imaged_case():
    lines = _run_demo("cache_drift.py", "--iters", "40").splitlines()
    # three imaged kinds times mst, amst, amst+eps, umst and sumst
    assert len(lines) == 15
    for line in lines:
        match = re.fullmatch(r"(\S+): gap (\S+), A (\S+), L_trial (\S+), final_x (\S+); "
                             r"max L_trial/L cached (\S+), uncached (\S+)", line)
        assert match, line
        # forty iterations are too few for the paths to part
        assert float(match.group(5)) <= 1e-12, line
