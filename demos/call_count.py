"""Interpreter calls per recorded row, for each run of demos/trace_digest.py.

A ``sys.setprofile`` hook counts, over one run, every Python function call
whose code lives in the triangle_opt package and every builtin function or
method call (ndarray.dot, math.sqrt, len, list.append, ...) made directly from
such a function.  Calls that numpy's own Python wrappers make are not counted,
so the count measures the package's code, not the numpy release; nor are
calls of objects that are neither (numpy ufuncs such as np.isfinite,
np.concatenate, classes), which the profiler does not report.  The count
repeats exactly from run to run, so a change to the hot loop is proven by it
without timing pairs.  Prints one line
per case: the case name, the recorded rows, and the Python and C calls per
row and their total (a run that raises before its first row prints its error
instead).  Run it on two versions of the code and diff the output:

    PYTHONPATH=src python demos/call_count.py --iters 300

Usage: python demos/call_count.py [--iters 300] [--case quadratic/amst ...]
"""

import argparse
import os
import sys

import triangle_opt
from trace_digest import _cases
from triangle_opt import TriangleOptError, run

PACKAGE = os.path.dirname(os.path.abspath(triangle_opt.__file__)) + os.sep


def count_calls(fn, *args):
    """(result or raised TriangleOptError, Python calls, C calls) of fn(*args)."""
    py = c = 0
    ours = {}  # code object -> whether it lives in the package

    def hook(frame, event, arg):
        nonlocal py, c
        if event == "call" or event == "c_call":
            code = frame.f_code
            mine = ours.get(code)
            if mine is None:
                mine = ours[code] = code.co_filename.startswith(PACKAGE)
            if mine:
                if event == "call":
                    py += 1
                else:
                    c += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    except TriangleOptError as exc:
        result = exc
    finally:
        sys.setprofile(None)
    return result, py, c


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=300)
    parser.add_argument("--case", action="append",
                        help="only this case (repeatable); default: every case")
    args = parser.parse_args()
    for name, objective, setup, config, rng in _cases(args.iters):
        if args.case and name not in args.case:
            continue
        result, py, c = count_calls(run, objective, setup, config, rng)
        # a run that raises after its first row is counted over its partial report
        report = getattr(result, "report", None) if isinstance(result, Exception) else result
        if report is None:
            print(f"{name} error: {type(result).__name__}: {result}", flush=True)
            continue
        rows = len(report.trace)
        print(f"{name} rows {rows} py {py / rows:.1f} c {c / rows:.1f} "
              f"calls {(py + c) / rows:.1f}", flush=True)


if __name__ == "__main__":
    main()
