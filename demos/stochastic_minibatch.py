"""Stochastic mode with growing mini-batches under a gaussian gradient model.

Gives a quadratic a gaussian noise model, whose variance bound D the solver
config holds, runs the stochastic universal mode to a certified target, and prints
how the mini-batch size m_k grows so that sampling error stays inside the
per-step slack.  Repeats over several seeds to show the mean gap landing
under the certified level while total stochastic-gradient calls stay within
the budget 4*(4*D*R^2/eps^2 + 2N).

Usage: python demos/stochastic_minibatch.py [--seeds 10] [--eps 1e-2] [--D 1.0]
"""

import argparse
from dataclasses import replace

import numpy as np

from triangle_opt import (NoiseModel, SolverConfig, StoppingRule, bregman_divergence,
                          check_bounds, make_problem, run)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--eps", type=float, default=1e-2)
    parser.add_argument("--D", type=float, default=1.0, dest="d_var")
    args = parser.parse_args()

    problem = make_problem("quadratic", dimension=20, seed=0)
    x_star, f_star = problem.objective.known_optimum
    r_sq = bregman_divergence(problem.setup, x_star, problem.setup.center)
    oracle = replace(problem.objective, noise_model=NoiseModel(kind="gaussian"))
    config = SolverConfig(mode="sumst_stochastic_universal", epsilon=args.eps,
                          D=args.d_var, max_iters=5000,
                          stopping=StoppingRule(kind="certified_gap", r_sq=r_sq))

    first = run(oracle, problem.setup, config, rng=0)
    trace = first.trace
    print(f"seed 0 batch schedule (eps = {args.eps:g}, D = {args.d_var:g}):")
    print(f"{'k':>5} {'m':>7} {'cum_stoch':>10} {'gap':>11}")
    ks = trace.column("k").astype(int)
    marks = sorted(set([0, 1, 2, 5, 10, 20] + [len(ks) - 1]))
    for mark in marks:
        if 0 <= mark < len(ks):
            print(f"{ks[mark]:>5d} {int(trace.column('m')[mark]):>7d} "
                  f"{int(trace.column('cum_stoch')[mark]):>10d} "
                  f"{trace.column('gap')[mark]:>11.3e}")

    gaps = []
    budget_ok = True
    for seed in range(args.seeds):
        report = run(oracle, problem.setup, config, rng=seed)
        gaps.append(problem.objective.composite_value(report.final_x) - f_star)
        check = check_bounds(report.trace, "t10_calls",
                             {"D": args.d_var, "R2": r_sq, "epsilon": args.eps})
        budget_ok = budget_ok and check.passed

    mean_gap = float(np.mean(gaps))
    print(f"\nmean final gap over {args.seeds} seeds: {mean_gap:.2e} "
          f"(certified level {2 * args.eps:g})")
    print(f"stochastic call budget on every seed: {'pass' if budget_ok else 'FAIL'}")


if __name__ == "__main__":
    main()
