"""Reads a benchmark smoke run's last stdout line from stdin, appends its
metrics to the file $GITHUB_STEP_SUMMARY names, and exits non-zero unless
the line is JSON with "correct": true.

    python3 perfbench/run.py --workload W --seconds 1 | tail -n 1 \\
        | python3 .github/smoke_result.py W traced|untraced
"""

import json
import os
import sys

workload, label = sys.argv[1:]
result = json.loads(sys.stdin.read())
with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
    summary.write(f"### {workload}, {label}, Python {sys.version.split()[0]}\n\n"
                  "| metric | value | unit |\n| --- | --- | --- |\n")
    for name, metric in result.get("metrics", {}).items():
        summary.write(f"| {name} | {metric['value']} | {metric['unit']} |\n")
    summary.write("\n")
sys.exit(0 if result.get("correct") is True else f"{workload}: {result}")
