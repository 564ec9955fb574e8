"""Smoke tests: the stochastic mini-batch demo runs end to end and reports a
passing call budget; the trace digest tool prints the same digests twice; the
cache drift demo prints one comparison per imaged case."""

import os
import re
import subprocess
import sys
from pathlib import Path

from triangle_opt import ZOO_KINDS

ROOT = Path(__file__).resolve().parent.parent


def test_stochastic_minibatch_demo_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "stochastic_minibatch.py"),
                             "--seeds", "2"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "stochastic call budget on every seed: pass" in result.stdout


def test_trace_digest_is_reproducible_with_one_line_per_case():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for _ in range(2):
        result = subprocess.run([sys.executable, str(ROOT / "demos" / "trace_digest.py"),
                                 "--iters", "15"],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    # five modes per zoo kind, plus sumst on the quadratic
    assert len(lines) == 5 * len(ZOO_KINDS) + 1
    assert len({line.split()[0] for line in lines}) == len(lines)
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def test_cache_drift_demo_prints_one_line_per_imaged_case():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "cache_drift.py"),
                             "--iters", "40"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # three imaged kinds times mst, amst, amst+eps, umst and sumst
    assert len(lines) == 15
    for line in lines:
        match = re.fullmatch(r"(\S+): gap (\S+), A (\S+), L_trial (\S+), final_x (\S+); "
                             r"max L_trial/L cached (\S+), uncached (\S+)", line)
        assert match, line
        # forty iterations are too few for the paths to part
        assert float(match.group(5)) <= 1e-12, line
