"""Smoke test: the stochastic mini-batch demo runs end to end and reports a
passing call budget."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stochastic_minibatch_demo_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "stochastic_minibatch.py"),
                             "--seeds", "2"],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "stochastic call budget on every seed: pass" in result.stdout
