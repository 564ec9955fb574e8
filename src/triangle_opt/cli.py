"""Command-line front end: ``solve`` runs a JSON experiment, one trace per
seed (a seed that fails mid-run writes its partial trace); ``check`` grades an
emitted trace against a named guarantee; ``zoo list`` and ``zoo describe
KIND`` enumerate the benchmark problems.  ``triangle-opt COMMAND --help``
lists a command's flags, and ``check --help`` the parameters each theorem
reads.  Exit codes: 0 on success/pass, 2 when a bound check fails, 1 on any
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import ConfigError, TriangleOptError, ValidationError, _checked
from .harness import _THEOREMS, THEOREM_IDS, check_bounds, load_experiment, run_experiment
from .traces import load_trace
from .zoo import DESCRIPTIONS, ZOO_KINDS

# each `check` flag -> its help, joined from the docs of the parameters it gives
_TABLE_PARAMS = [param for theorem in _THEOREMS.values() for param in theorem.params.values()]
_FLAGS = {flag: "; ".join(dict.fromkeys(p.doc for p in _TABLE_PARAMS if p.flag == flag))
          for flag in dict.fromkeys(p.flag for p in _TABLE_PARAMS if p.flag)}


def _usage(theorem) -> str:
    """Each parameter a theorem reads, with the ``check`` flag that gives it,
    else its default, else a note that only check_bounds can give it."""
    sources = []
    for name, param in theorem.params.items():
        fallback = "check_bounds only" if param.default is None else f"default {param.default}"
        sources.append(f"{name} ({param.flag or fallback})")
    return ", ".join(sources)


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

    p_check = sub.add_parser(
        "check", help="grade a trace against a named bound",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="the parameters each theorem reads:\n" + "\n".join(
            f"  {theorem_id:<11} {_usage(theorem)}" for theorem_id, theorem in _THEOREMS.items()))
    p_check.add_argument("--trace", required=True, help="path to a CSV/JSON trace")
    p_check.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    for flag, doc in _FLAGS.items():
        p_check.add_argument(flag, type=float, default=None, help=doc)

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
        experiment.seeds = [_checked('"--seed"', args.seed, 0, integer=True,
                                     error=ValidationError)]
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
    theorem = _THEOREMS[args.theorem]
    reads = {param.flag: name for name, param in theorem.params.items()}
    given = {flag: getattr(args, flag[2:]) for flag in _FLAGS}
    given = {flag: value for flag, value in given.items() if value is not None}
    unread = [flag for flag in given if flag not in reads]
    if unread:
        raise ConfigError(f"{' '.join(unread)}: not read by {args.theorem}, which reads "
                          f"{_usage(theorem)}")
    trace = load_trace(args.trace)
    verdict = check_bounds(trace, args.theorem, {reads[flag]: v for flag, v in given.items()})
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
