"""Meta-strategies wrapped around the core solver.

Three algorithm-level tools: Tikhonov-style regularization that turns a convex
problem into a strongly convex one with a controlled bias, distance-halving
restarts of the plain exact-L method, and the Holder-to-Lipschitz majorant
constant that explains why the universal mode's slack makes backtracking
terminate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, _checked
from .oracles import CompositeObjective
from .prox_geometry import ProxSetup, bregman_divergence, recenter
from .solvers import RunReport, SolverConfig, run
from .traces import Trace


def inner_iterations(L: float, mu: float, omega: float) -> int:
    """ceil(sqrt(8*L*omega/mu)), always >= 1."""
    _checked("L", L, 0, above=True)
    _checked("mu", mu, 0, above=True)
    _checked("omega", omega, 1)
    root = math.sqrt(8.0 * L * omega / mu)
    if root == math.inf:
        raise ConfigError("inner iteration count overflows: 8 L omega / mu is inf")
    return max(1, math.ceil(root))


def regularize(objective: CompositeObjective, setup: ProxSetup, epsilon: float,
               R_sq: float) -> tuple[CompositeObjective, float]:
    """F^mu(x) = F(x) + mu*V(x, y0) with mu = epsilon/(2*R_sq).

    R_sq is a user-supplied upper bound on V(x*, y0).  Solving the regularized
    problem to epsilon/2 then solves the original to epsilon, because the added
    term is at most mu*R_sq = epsilon/2 at x*.  The returned objective adds the
    exact Bregman term to both oracles (for the euclidean geometry the added
    gradient is mu*(x - y0), vanishing at the center).  It has no noise model,
    since the objective's noise model describes draws of the base gradient.
    """
    _checked("epsilon", epsilon, 0, above=True)
    _checked("R_sq", R_sq, 0, above=True)
    mu_reg = epsilon / (2.0 * R_sq)
    if mu_reg == math.inf:
        raise ConfigError("regularize overflows: epsilon / (2 R_sq) is inf")
    base_value = objective.smooth_value
    base_grad = objective.smooth_grad
    center = setup.center
    grad_d_center = setup.d_grad(center)

    def added_value(x):
        return mu_reg * bregman_divergence(setup, x, center)

    def added_grad(x):
        return mu_reg * (setup.d_grad(x) - grad_d_center)

    def reg_value(x):
        return float(base_value(x)) + added_value(x)

    def reg_grad(x):
        return np.asarray(base_grad(x), dtype=float) + added_grad(x)

    meta = dict(objective.smoothness_meta or {})
    if "L" in meta:
        meta["L"] = meta["L"] + mu_reg
    meta["mu"] = meta.get("mu", 0.0) + mu_reg
    regularized = CompositeObjective(
        smooth_value=reg_value, smooth_grad=reg_grad, h=objective.h, known_optimum=None,
        smoothness_meta=meta)
    return regularized, mu_reg


def restart_run(objective: CompositeObjective, setup: ProxSetup, L: float, mu: float,
                omega: float, K: int) -> RunReport:
    """K distance-halving restarts of the plain exact-L method (mu_tilde = 0
    inside), each N_bar = ceil(sqrt(8*L*omega/mu)) iterations, re-centering the
    prox at the previous restart's output.

    The returned trace holds one row per restart boundary (k = restart index,
    gap and dist_x_sq relative to known_optimum when available); meta records
    mu, omega, N_bar, and the initial squared distance when the optimum is
    known.  Supported for h in {zero, l1} on free space: the strong convexity
    of the whole F is what the halving argument needs, and re-centering is a
    euclidean operation.
    """
    n_bar = inner_iterations(L, mu, omega)
    _checked("K", K, 0, integer=True)
    setup = recenter(setup, setup.center)  # raises UnsupportedGeometry when re-centering is undefined
    if objective.h.kind not in ("zero", "l1"):
        raise ConfigError(f"restarts support h in {{zero, l1}}, got {objective.h.kind!r}")
    if setup.feasible_set.kind != "free_space":
        raise ConfigError("restarts are supported on free_space only")
    trace = Trace()
    trace.meta["mu"] = mu
    trace.meta["omega"] = omega
    trace.meta["n_bar"] = n_bar
    x_star = f_star = None
    if objective.known_optimum is not None:
        x_star, f_star = objective.known_optimum
    if x_star is not None:
        trace.meta["y0_dist_sq"] = float(setup.norm(setup.center - x_star) ** 2)
    if K == 0:
        return RunReport(final_x=setup.center.copy(), iterations=0, total_f_calls=0,
                         total_grad_calls=0, total_stoch_calls=0, trace=trace)

    inner_config = SolverConfig(mode="mst_exact_L", L_known=L, max_iters=n_bar + 1)
    current = setup.center
    cum_f = cum_grad = cum_stoch = 0
    total_iters = 0
    report = None
    for k in range(1, K + 1):
        inner_setup = recenter(setup, current)
        report = run(objective, inner_setup, inner_config)
        current = report.final_x
        cum_f += report.total_f_calls
        cum_grad += report.total_grad_calls
        cum_stoch += report.total_stoch_calls
        total_iters += report.iterations
        row = {"k": k, "A": report.trace.last("A"), "alpha": report.trace.last("alpha"),
               "L_trial": L, "j": 0, "m": 1, "cum_f": cum_f, "cum_grad": cum_grad,
               "cum_stoch": cum_stoch}
        if f_star is not None:
            row["gap"] = objective.composite_value(current) - f_star
        else:
            row["gap"] = math.nan
        if x_star is not None:
            row["dist_x_sq"] = float(setup.norm(current - x_star) ** 2)
        else:
            row["dist_x_sq"] = math.nan
        trace.append(**row)
    return RunReport(final_x=current, iterations=total_iters, total_f_calls=cum_f,
                     total_grad_calls=cum_grad, total_stoch_calls=cum_stoch, trace=trace)


def holder_majorant_L(L_nu: float, nu: float, delta: float) -> float:
    """L = L_nu * (L_nu/(2*delta) * (1-nu)/(1+nu))^((1-nu)/(1+nu)).

    The quadratic majorant constant: a (nu, L_nu)-Holder gradient admits, for
    any slack delta > 0, the inequality f(x) <= f(y) + <grad f(y), x-y>
    + (L/2)*||x-y||^2 + delta with this L.  Nonincreasing in delta; at nu = 1
    the exponent vanishes and L = L_1 regardless of delta.
    """
    _checked("L_nu", L_nu, 0, above=True)
    if _checked("nu", nu, 0, maximum=1) == 1.0:
        return L_nu
    _checked("delta", delta, 0, above=True)  # read only when nu < 1
    exponent = (1.0 - nu) / (1.0 + nu)
    majorant = L_nu * (L_nu / (2.0 * delta) * (1.0 - nu) / (1.0 + nu)) ** exponent
    if majorant == math.inf:
        raise ConfigError("holder_majorant_L overflows: delta is too small for L_nu")
    return majorant


__all__ = ["inner_iterations", "regularize", "restart_run", "holder_majorant_L"]
