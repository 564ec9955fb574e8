"""How far runs on cached images drift from the same runs without them.

For each zoo kind with a linear image (quadratic, lasso, logistic) and each of
mst, amst, amst+eps, umst and sumst, runs the solver twice: on the cached
path (cached gradients on the quadratic and lasso, which carry a quadratic
form; cached images on the logistic), and on the same objective with
``linear=None``, which evaluates f and grad f through the objective's
oracles at every point and checks descent with the difference of f values.
Prints one line per case: the largest difference
between the two runs in the trace columns gap, A and L_trial and in final_x,
each relative to the largest magnitude of that quantity in the uncached run,
and the largest L_trial / L of each run.

Usage: python demos/cache_drift.py [--iters 300]
"""

import argparse
import dataclasses

import numpy as np

from triangle_opt import NoiseModel, SolverConfig, TriangleOptError, make_problem, run

KINDS = ("quadratic", "lasso", "logistic")
EPSILON = 1e-3


def _configs(L: float, iters: int) -> dict:
    return {
        "mst": SolverConfig(mode="mst_exact_L", L_known=L, max_iters=iters),
        "amst": SolverConfig(mode="amst_adaptive", max_iters=iters),
        "amst+eps": SolverConfig(mode="amst_adaptive", epsilon=EPSILON, max_iters=iters),
        "umst": SolverConfig(mode="umst_universal", epsilon=EPSILON, max_iters=iters),
        "sumst": SolverConfig(mode="sumst_stochastic_universal", epsilon=1e-2, D=0.1,
                              max_iters=iters),
    }


def _solve(objective, setup, config):
    if config.mode == "sumst_stochastic_universal":
        objective = dataclasses.replace(objective, noise_model=NoiseModel(kind="gaussian"))
    return run(objective, setup, config, rng=0)


def relative_gap(cached, plain) -> float:
    """max |cached - plain| over max |plain|; inf when the lengths differ."""
    cached, plain = np.asarray(cached, dtype=float), np.asarray(plain, dtype=float)
    if cached.shape != plain.shape:
        return float("inf")
    scale = float(np.max(np.abs(plain), initial=0.0)) or 1.0
    return float(np.max(np.abs(cached - plain), initial=0.0)) / scale


def compare(problem, config) -> str:
    objective = problem.objective
    L = objective.smoothness_meta["L"]
    try:
        cached = _solve(objective, problem.setup, config)
        plain = _solve(dataclasses.replace(objective, linear=None), problem.setup, config)
    except TriangleOptError as exc:
        return f"error: {type(exc).__name__}: {exc}"
    gaps = [f"{name} {relative_gap(cached.trace.column(name), plain.trace.column(name)):.1e}"
            for name in ("gap", "A", "L_trial")]
    gaps.append(f"final_x {relative_gap(cached.final_x, plain.final_x):.1e}")
    ratios = (float(np.max(cached.trace.column("L_trial"))) / L,
              float(np.max(plain.trace.column("L_trial"))) / L)
    return ", ".join(gaps) + f"; max L_trial/L cached {ratios[0]:.3g}, uncached {ratios[1]:.3g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=300)
    args = parser.parse_args()
    for kind in KINDS:
        problem = make_problem(kind)
        for name, config in _configs(problem.objective.smoothness_meta["L"], args.iters).items():
            print(f"{kind}/{name}: {compare(problem, config)}")


if __name__ == "__main__":
    main()
