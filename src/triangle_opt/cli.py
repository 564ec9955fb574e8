"""Command-line front end.

Three subcommands:

* ``solve --config FILE [--seed S] [--out PATH]``: run a JSON experiment,
  one trace per seed; a seed that fails mid-run writes its partial trace.
* ``check --trace PATH --theorem ID [--L v] [--R2 v] [--mu v] [--D v]
  [--epsilon v]``: grade an emitted trace against a named guarantee.  Each
  theorem reads its own flags: t1 ``--L --R2``; t2_t3 ``--L --R2 --mu``;
  t6_work ``--L``; t10_calls ``--D --R2 --epsilon``; t5_halving ``--mu
  --R2``, with R2 = ||y0 - x*||^2, on a trace that ``restart_run`` wrote.
  c1 and c2 need ``x0_y0_sq``, which a written trace does not carry, and
  t9_scaling grades (eps, N) points, not a trace: these are graded with
  ``harness.check_bounds`` only.
* ``zoo list`` / ``zoo describe KIND``: enumerate the benchmark problems.

Exit codes: 0 on success/pass, 2 when a bound check fails, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import TriangleOptError, ValidationError
from .harness import THEOREM_IDS, check_bounds, load_experiment, run_experiment
from .traces import load_trace
from .zoo import DESCRIPTIONS, ZOO_KINDS


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(prog="triangle-opt",
                                     description="Similar-triangles solver family: "
                                                 "run experiments and check bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a JSON experiment config")
    p_solve.add_argument("--config", required=True, help="path to the JSON experiment file")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="run only this seed (overrides the config's list)")
    p_solve.add_argument("--out", default=None,
                         help="trace output path (overrides the config's output)")

    p_check = sub.add_parser("check", help="grade a trace against a named bound")
    p_check.add_argument("--trace", required=True, help="path to a CSV/JSON trace")
    p_check.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p_check.add_argument("--L", type=float, default=None, help="Lipschitz constant")
    p_check.add_argument("--R2", type=float, default=None,
                         help="initial distance term: V(x*, y0) for the rate checks, "
                              "||y0 - x*||^2 for t5_halving")
    p_check.add_argument("--mu", type=float, default=None, help="strong convexity modulus")
    p_check.add_argument("--D", type=float, default=None, help="gradient variance bound")
    p_check.add_argument("--epsilon", type=float, default=None,
                         help="target accuracy (t10_calls)")

    p_zoo = sub.add_parser("zoo", help="list or describe benchmark problems")
    p_zoo.add_argument("action", choices=("list", "describe"))
    p_zoo.add_argument("kind", nargs="?", default=None)
    return parser


def _cmd_solve(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    experiment = load_experiment(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError(f'"--seed" must be an integer >= 0, got {args.seed}')
        experiment.seeds = [args.seed]
    if args.out is not None:
        experiment.output = args.out
    results = run_experiment(experiment)
    failed = 0
    for res in results:
        if res.error is not None:
            failed += 1
            line = f"seed {res.seed}: error: {res.error}"
            if res.path:
                line += f" (partial trace of {len(res.trace)} rows -> {res.path})"
            print(line)
            continue
        report = res.report
        line = f"seed {res.seed}: {report.iterations} iterations"
        gap = report.trace.last("gap")
        if gap is not None and math.isfinite(gap):
            line += f", final gap {gap:.6g}"
        if report.certified_gap is not None:
            line += f", certified gap bound {report.certified_gap:.6g}"
        line += (f", f/grad/stoch calls {report.total_f_calls}/"
                 f"{report.total_grad_calls}/{report.total_stoch_calls}")
        if res.path:
            line += f" -> {res.path}"
        print(line)
    return 1 if failed else 0


def _cmd_check(args) -> int:
    trace = load_trace(args.trace)
    params = {"L": args.L, "R2": args.R2, "mu": args.mu, "D": args.D,
              "epsilon": args.epsilon}
    if args.theorem == "t5_halving" and args.R2 is not None:
        params["y0_dist_sq"] = args.R2
    params = {k: v for k, v in params.items() if v is not None}
    verdict = check_bounds(trace, args.theorem, params)
    print(verdict.summary())
    if not verdict.passed:
        shown = [r for r in verdict.rows if not r["ok"]][:10]
        for row in shown:
            print(f"  k={row['k']}: measured {row['measured']:.6g} "
                  f"> bound {row['bound']:.6g} (margin {row['margin']:.3g})")
        return 2
    return 0


def _cmd_zoo(args) -> int:
    if args.action == "list":
        for kind in ZOO_KINDS:
            print(kind)
        return 0
    if args.kind is None:
        print("error: describe needs a problem kind", file=sys.stderr)
        return 1
    if args.kind not in ZOO_KINDS:
        print(f"error: unknown problem kind {args.kind!r}; known: {', '.join(ZOO_KINDS)}",
              file=sys.stderr)
        return 1
    print(f"{args.kind}:")
    print(DESCRIPTIONS[args.kind])
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_zoo(args)
    except TriangleOptError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
