"""One sha256 per solver run, to check that a refactor leaves traces bit-identical.

Runs every zoo kind under mst, mst+mu, amst, amst+eps and umst, plus sumst on
the quadratic, and prints one line per case: the case name and a sha256 over
every in-memory trace column (name, dtype and raw bytes), the trace meta,
final_x and the counters.  A run that raises prints the error instead of a
digest.  Run it on two versions of the code and diff the output:

    PYTHONPATH=src python demos/trace_digest.py > after.txt

Usage: python demos/trace_digest.py [--iters 300]
"""

import argparse
import hashlib

import numpy as np

from triangle_opt import (ZOO_KINDS, NoiseModel, SolverConfig,
                          StochasticGradientOracle, TriangleOptError, make_problem,
                          run)

EPSILON = 1e-3


def _configs(meta: dict, iters: int) -> dict:
    L = meta.get("L", 1.0)
    mu = meta.get("mu") or 1e-2
    return {
        "mst": SolverConfig(mode="mst_exact_L", L_known=L, max_iters=iters),
        "mst+mu": SolverConfig(mode="mst_exact_L", L_known=L, mu=mu, max_iters=iters),
        "amst": SolverConfig(mode="amst_adaptive", max_iters=iters),
        "amst+eps": SolverConfig(mode="amst_adaptive", epsilon=EPSILON, max_iters=iters),
        "umst": SolverConfig(mode="umst_universal", epsilon=EPSILON, max_iters=iters),
    }


def _cases(iters: int):
    for kind in ZOO_KINDS:
        problem = make_problem(kind)
        for name, config in _configs(problem.objective.smoothness_meta or {}, iters).items():
            yield f"{kind}/{name}", problem.objective, problem.setup, config, None
    problem = make_problem("quadratic")
    oracle = StochasticGradientOracle(base=problem.objective,
                                      noise_model=NoiseModel(kind="gaussian"),
                                      variance_bound=0.1)
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=0.1,
                          max_iters=iters)
    yield "quadratic/sumst", oracle, problem.setup, config, 0


def digest(report) -> str:
    h = hashlib.sha256()
    for name in sorted(report.trace.data):
        col = np.asarray(report.trace.data[name])
        h.update(f"{name}:{col.dtype.str}:".encode())
        h.update(col.tobytes())
    h.update(repr(sorted(report.trace.meta.items())).encode())
    h.update(np.ascontiguousarray(report.final_x).tobytes())
    h.update(repr((report.iterations, report.total_f_calls, report.total_grad_calls,
                   report.total_stoch_calls, report.certified_gap)).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=300)
    args = parser.parse_args()
    for name, objective, setup, config, rng in _cases(args.iters):
        try:
            line = digest(run(objective, setup, config, rng))
        except TriangleOptError as exc:
            line = f"error: {type(exc).__name__}: {exc}"
        print(f"{name} {line}")


if __name__ == "__main__":
    main()
