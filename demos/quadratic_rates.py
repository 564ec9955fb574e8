"""Rate guarantees of the exact-L mode on seeded quadratics.

Runs the plain mode on a smooth quadratic and on a strongly convex one, prints
the measured gap against the guaranteed envelope at a few checkpoints, and
grades the full traces with the bound checker (the same checks exposed through
the check CLI subcommand).  Also demonstrates the iterate distance bounds that
hold along every exact-L run with a known optimum.

Usage: python demos/quadratic_rates.py [--dimension 50] [--iters 2000]
"""

import argparse
import math

import numpy as np

from triangle_opt import (SolverConfig, bregman_divergence, check_bounds,
                          make_problem, run)


def show_checkpoints(trace, bound_fn, label):
    print(f"\n{label}")
    print(f"{'k':>6} {'gap':>12} {'bound':>12}")
    ks = trace.column("k").astype(int)
    gaps = trace.column("gap")
    for mark in (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 3000):
        if mark < len(ks):
            print(f"{ks[mark]:>6d} {gaps[mark]:>12.3e} {bound_fn(int(ks[mark])):>12.3e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dimension", type=int, default=50)
    parser.add_argument("--iters", type=int, default=2000)
    args = parser.parse_args()

    problem = make_problem("quadratic", dimension=args.dimension, seed=0)
    big_l = problem.objective.smoothness_meta["L"]
    x_star = problem.objective.known_optimum[0]
    r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
    print(f"smooth quadratic: dimension {args.dimension}, L = {big_l:g}, "
          f"R^2 = V(x*, y0) = {r_sq:g}")

    config = SolverConfig(mode="mst_exact_L", L_known=big_l, max_iters=args.iters + 1)
    report = run(problem.objective, problem.setup, config)
    show_checkpoints(report.trace, lambda k: 4.0 * big_l * r_sq / (k + 1) ** 2,
                     "gap vs 4*L*R^2/(k+1)^2")
    for theorem_id, params in (("t1", {"L": big_l, "R2": r_sq}), ("c1", {"R2": r_sq})):
        check = check_bounds(report.trace, theorem_id, params)
        status = "pass" if check.passed else "FAIL"
        print(f"{theorem_id}: {status} (worst margin {check.worst_margin:.3e})")

    mu = 0.01
    strong = make_problem("quadratic", dimension=args.dimension, seed=0, lam_min=mu)
    config = SolverConfig(mode="mst_exact_L", L_known=big_l, mu=mu,
                          max_iters=args.iters + 1)
    report = run(strong.objective, strong.setup, config)
    rate = 0.5 * math.sqrt(mu / big_l)
    show_checkpoints(report.trace,
                     lambda k: min(4.0 * big_l * r_sq / (k + 1) ** 2,
                                   big_l * r_sq * math.exp(-rate * k)),
                     f"strongly convex (mu/L = {mu:g}): gap vs the linear envelope")
    check = check_bounds(report.trace, "t2_t3", {"L": big_l, "R2": r_sq, "mu": mu})
    status = "pass" if check.passed else "FAIL"
    print(f"t2_t3: {status} (worst margin {check.worst_margin:.3e})")

    final_dist = float(np.linalg.norm(report.final_x - x_star))
    print(f"\nfinal iterate distance to x*: {final_dist:.3e}")


if __name__ == "__main__":
    main()
