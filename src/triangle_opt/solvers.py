"""The similar-triangles solver family.

Four modes share one iteration skeleton: coefficient update, estimate-function
fold, a single prox step, and triangle interpolation of the next query point.

* ``mst_exact_L``: the Lipschitz constant is known; no backtracking.  With
  ``mu > 0`` the strongly convex coefficient recursion is used.
* ``amst_adaptive``: per-iteration doubling of a trial constant with a warm
  start at half the previously accepted value; slack 0, or eps*alpha/A when a
  target accuracy is configured.
* ``umst_universal``: same loop with slack eps*alpha/(2A); the slack is what
  lets the doubling terminate for merely Hölder-continuous gradients, without
  knowing the exponent.
* ``sumst_stochastic_universal``: slack 3*eps*alpha/(2A) and mini-batched
  stochastic gradients with the batch size tied to the trial constant; a fresh
  batch is drawn at every backtracking trial.

The per-iterate certificate A_k F(x^k) <= phi_k(u^k) + A_k * c * eps (with the
mode's accumulated slack factor c) is recorded in the trace and drives the
certified-gap stopping rule and the reported gap bound R^2/A_N + c*eps.

An objective with a ``LinearImage``, f(x) = psi(z(x)), runs on cached images:
the state keeps z(u) (one forward product per trial) and z(x) (a combination
of images), so z(y) costs no product and f(y), grad f(y) cost one adjoint
product.  The descent check then takes its Bregman form
D_psi(z(y), z(x) - z(y)) <= L/2 ||x - y||^2 + slack, which is free of the
cancellation in f(y) + <g, x - y> - f(x); a trial whose u does not move passes
it only at an L_trial no smaller than the last accepted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BacktrackLimitExceeded, CoefficientOverflow, ConfigError,
                     TriangleOptError)
from .oracles import (CompositeObjective, EvalCounter, LinearImage, StochasticGradientOracle,
                      _checked_value, grad, image_value_and_grad, minibatch_gradient,
                      substream, value, value_and_grad)
from .prox_geometry import (EstimateFunction, ProxSetup, composite_prox_solve,
                            estimate_value, initial_estimate)
from .traces import Trace

MODES = ("mst_exact_L", "amst_adaptive", "umst_universal", "sumst_stochastic_universal")
A_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class StoppingRule:
    """iterations_only, gradient_mapping (threshold), or certified_gap (r_sq)."""

    kind: str = "iterations_only"
    threshold: float | None = None
    r_sq: float | None = None

    def __post_init__(self):
        if self.kind not in ("iterations_only", "gradient_mapping", "certified_gap"):
            raise ConfigError(f"unknown stopping rule {self.kind!r}")
        if self.kind == "gradient_mapping" and (self.threshold is None or self.threshold <= 0):
            raise ConfigError("gradient_mapping stopping needs a positive threshold")
        if self.kind == "certified_gap" and (self.r_sq is None or self.r_sq <= 0):
            raise ConfigError("certified_gap stopping needs a positive r_sq bound")


@dataclass(frozen=True)
class SolverConfig:
    mode: str
    L_known: float | None = None
    L0: float = 1.0
    mu: float = 0.0
    omega_tilde: float = 1.0
    epsilon: float | None = None
    D: float | None = None
    max_iters: int = 100
    max_backtracks_per_iter: int = 60
    stopping: StoppingRule = field(default_factory=StoppingRule)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        if self.mode == "mst_exact_L" and (self.L_known is None or self.L_known <= 0):
            raise ConfigError("mst_exact_L requires a positive L_known")
        if self.mode in ("umst_universal", "sumst_stochastic_universal"):
            if self.epsilon is None or self.epsilon <= 0:
                raise ConfigError(f"{self.mode} requires a positive epsilon")
        if self.mode == "sumst_stochastic_universal" and self.D is None:
            raise ConfigError("sumst_stochastic_universal requires the variance bound D")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon must be positive when given")
        if self.L0 <= 0:
            raise ConfigError("L0 must be positive")
        if self.mu < 0:
            raise ConfigError("mu must be nonnegative")
        if self.omega_tilde < 1.0:
            raise ConfigError("omega_tilde must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.max_backtracks_per_iter < 1:
            raise ConfigError("max_backtracks_per_iter must be >= 1")
        if self.stopping.kind == "certified_gap" and self.epsilon is None:
            raise ConfigError("certified_gap stopping needs config.epsilon as its target")

    @property
    def mu_tilde(self) -> float:
        return self.mu / self.omega_tilde

    @property
    def slack_factor(self) -> float:
        """Accumulated-slack coefficient c: per-trial slack is c*eps*alpha/A."""
        if self.mode == "umst_universal":
            return 0.5
        if self.mode == "sumst_stochastic_universal":
            return 1.5
        if self.mode == "amst_adaptive" and self.epsilon is not None:
            return 1.0
        return 0.0


@dataclass
class SolverState:
    k: int
    A: float
    alpha: float
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phi: EstimateFunction
    L_trial: float
    j: int
    m: int
    mu_tilde: float
    counters: EvalCounter
    trace: Trace
    # f at x and y as the method computed them, or None where it computed none
    f_x: float | None = None
    f_y: float | None = None
    # [u; z(u)] and [x; z(x)] stacked, when the objective has a LinearImage,
    # so that one combination forms a point and its image together
    uz: np.ndarray | None = None
    xz: np.ndarray | None = None


@dataclass
class RunReport:
    final_x: np.ndarray
    iterations: int
    total_f_calls: int
    total_grad_calls: int
    total_stoch_calls: int
    trace: Trace
    certified_gap: float | None = None


def alpha_next(L: float, A_k: float, mu_tilde: float) -> tuple[float, float]:
    """Positive root of L*a^2 - (1+A_k*mu~)*a - A_k*(1+A_k*mu~) = 0 and A_{k+1}.

    Written as b*(1 + sqrt(1 + 4*L*A_k/b))/(2L) with b = 1 + A_k*mu~ so the
    radical never overflows even when A_k is near the 1e300 guard.  The
    defining identity A_{k+1}*(1+A_k*mu~) = L*alpha^2 is re-checked on every
    call at 1e-12 relative.
    """
    b = 1.0 + A_k * mu_tilde
    alpha = b * (1.0 + math.sqrt(1.0 + 4.0 * L * A_k / b)) / (2.0 * L)
    a_next = A_k + alpha
    if not (math.isfinite(alpha) and math.isfinite(a_next)):
        raise CoefficientOverflow("coefficient recursion left double range")
    # identity check in overflow-safe ratio form: (A_next/alpha)*(b/alpha) == L
    drift = abs((a_next / alpha) * (b / alpha) - L)
    if drift > 1e-12 * max(1.0, L):
        raise CoefficientOverflow(f"coefficient identity drifted by {drift:.3e}")
    return alpha, a_next


def fold_estimate(phi: EstimateFunction, alpha: float, y: np.ndarray, g: np.ndarray,
                  f_y: float, mu_tilde: float, setup: ProxSetup) -> EstimateFunction:
    """phi + alpha*[f_y + <g, x-y> + mu~*V(x,y) + h(x)] in canonical form.

    With mu~ = 0 the V(x, y) terms vanish and d is not evaluated at y, so a
    coordinate of y at 0 on the entropy simplex raises nothing."""
    constant = phi.constant + alpha * (f_y - float(g.dot(y)))
    if mu_tilde == 0.0:
        return EstimateFunction(d_scale=phi.d_scale, linear=phi.linear + alpha * g,
                                h_scale=phi.h_scale + alpha, constant=constant)
    gd = setup.d_grad(y)
    d_scale = phi.d_scale + alpha * mu_tilde
    linear = phi.linear + alpha * (g - mu_tilde * gd)
    constant += alpha * mu_tilde * (-setup.d_value(y) + float(gd.dot(y)))
    return EstimateFunction(d_scale=d_scale, linear=linear,
                            h_scale=phi.h_scale + alpha, constant=constant)


def descent_check(f_y: float, g_dot_dx: float, dx_norm_sq: float,
                  L_trial: float, slack: float, f_x_new: float) -> bool:
    return f_y + g_dot_dx + 0.5 * L_trial * dx_norm_sq + slack >= f_x_new


def batch_size(D: float, A_next: float, alpha: float, L_trial: float, epsilon: float) -> int:
    """ceil(2*D*A_{k+1} / (L_trial * alpha_{k+1} * eps)), clamped to >= 1."""
    if D is None or epsilon is None:
        raise ConfigError("batch size needs both D and epsilon")
    if D == 0.0:
        return 1
    return max(1, math.ceil(2.0 * D * A_next / (L_trial * alpha * epsilon)))


class StepCandidate(NamedTuple):
    y_next: np.ndarray
    u_next: np.ndarray
    x_next: np.ndarray | None
    alpha: float
    A_next: float
    phi_next: EstimateFunction
    f_y: float
    g: np.ndarray
    m: int
    # cached path only: z(y), the stacked [u_next; z(u_next)] and
    # [x_next; z(x_next)], and the exact grad f(y) (g itself unless stochastic)
    z_y: np.ndarray | None = None
    uz: np.ndarray | None = None
    xz: np.ndarray | None = None
    g_exact: np.ndarray | None = None


def _base_objective(objective) -> CompositeObjective:
    if isinstance(objective, StochasticGradientOracle):
        return objective.base
    return objective


def _image_oracle(image: LinearImage, z: np.ndarray, counters: EvalCounter,
                  stochastic: bool) -> tuple[float, np.ndarray]:
    """f and the exact gradient at the point whose image is z: 1 f + 1 grad
    call, or in sumst 1 f call with the gradient left for the mini-batch draw
    that is built on it (and counted) to use."""
    if not stochastic:
        return image_value_and_grad(image, z, counters)
    return _checked_value(image.psi(z), counters), image.adjoint(image.psi_grad(z))


def _candidate(state: SolverState, objective, setup: ProxSetup, L_for_step: float,
               draw_batch=None) -> StepCandidate:
    """One trial: coefficients, query point, fold, prox, interpolation.

    The gradient at y is exact, or with draw_batch(y, alpha, A_next, g_exact)
    -> (g, m) a mini-batch of size m.  On the cached path the candidate carries
    z(y) and [u_next; z(u_next)] instead of x_next, which _accept forms with
    its image for the accepted trial only."""
    obj = _base_objective(objective)
    counters = state.counters
    alpha, a_next = alpha_next(L_for_step, state.A, state.mu_tilde)
    A = state.A
    image = obj.linear
    if image is None:
        y = (alpha * state.u + A * state.x) / a_next
        if draw_batch is None:
            f_y, g = value_and_grad(obj, y, counters)
            m = 1
        else:
            f_y = value(obj, y, counters)
            g, m = draw_batch(y, alpha, a_next, None)
    else:
        yz = (alpha * state.uz + A * state.xz) / a_next
        y, z_y = yz[:state.u.size], yz[state.u.size:]
        f_y, g_exact = _image_oracle(image, z_y, counters, draw_batch is not None)
        if draw_batch is None:
            g, m = g_exact, 1
        else:
            g, m = draw_batch(y, alpha, a_next, g_exact)
    phi = fold_estimate(state.phi, alpha, y, g, f_y, state.mu_tilde, setup)
    u = composite_prox_solve(setup, phi, obj.h)
    if image is None:
        x = (alpha * u + A * state.x) / a_next
        return StepCandidate(y, u, x, alpha, a_next, phi, f_y, g, m)
    uz = np.concatenate((u, image.forward(u)))
    return StepCandidate(y, u, None, alpha, a_next, phi, f_y, g, m, z_y, uz, None, g_exact)


def _interpolate(state: SolverState, cand: StepCandidate) -> np.ndarray:
    """[x_next; z(x_next)] by the triangle step on the cached images."""
    return (cand.alpha * cand.uz + state.A * state.xz) / cand.A_next


def mst_step(state: SolverState, objective, setup: ProxSetup, L_for_step: float) -> StepCandidate:
    """Deterministic candidate triple for the exact-L step (counts 1 f + 1 grad)."""
    cand = _candidate(state, objective, setup, L_for_step)
    if cand.x_next is None:
        xz = _interpolate(state, cand)
        cand = cand._replace(x_next=xz[:state.x.size], xz=xz)
    return cand


def _accept(state: SolverState, cand: StepCandidate, L_trial: float, j: int,
            f_x: float | None = None) -> SolverState:
    x, xz = cand.x_next, cand.xz
    if x is None:
        xz = _interpolate(state, cand)
        x = xz[:state.x.size]
    return SolverState(k=state.k + 1, A=cand.A_next, alpha=cand.alpha, u=cand.u_next,
                       x=x, y=cand.y_next, phi=cand.phi_next, L_trial=L_trial,
                       j=j, m=cand.m, mu_tilde=state.mu_tilde, counters=state.counters,
                       trace=state.trace, f_x=f_x, f_y=cand.f_y, uz=cand.uz, xz=xz)


def bregman_check(image: LinearImage, z_y: np.ndarray, dz: np.ndarray, du: np.ndarray,
                  r: float, noise, L_trial: float, slack: float, L_floor: float, norms,
                  counter: EvalCounter | None = None) -> bool:
    """The descent check on cached images, with x - y = r*du and z(x) - z(y) =
    r*dz formed from the same u-difference:

        D_psi(z_y, r*dz) - <noise, r*du> <= L_trial/2 * r^2 ||du||^2 + slack,

    where noise = g - grad f(y) for a stochastic g and None otherwise.  The
    Bregman evaluation counts as the f(x) call it replaces.  A zero step
    (du == 0) reads 0 <= slack at any L, so it passes only when L_trial >=
    L_floor, the last accepted constant."""
    du_sq = norms.primal(du) ** 2
    bregman = image.psi_bregman(z_y, r * dz)
    if noise is not None:
        bregman -= r * float(noise.dot(du))
    bregman = _checked_value(bregman, counter)
    if du_sq == 0.0 and L_trial < L_floor:
        return False
    return bregman <= 0.5 * L_trial * (r * r * du_sq) + slack


def backtrack_iteration(state: SolverState, objective, setup: ProxSetup,
                        config: SolverConfig, rng) -> SolverState:
    """One accepted adaptive iteration: doubles L_trial until the slack descent
    check passes, recomputing the whole candidate (and, in sumst, drawing a
    fresh mini-batch) at every trial.  Warm-starts at half the last accepted L.
    On the cached path x_next and its image are formed for the accepted trial
    only."""
    obj = _base_objective(objective)
    image = obj.linear
    stochastic = config.mode == "sumst_stochastic_universal"
    seed = 0 if rng is None else int(rng)
    eps = config.epsilon
    factor = config.slack_factor
    L_trial = state.L_trial / 2.0
    j = 0
    while True:
        draw_batch = None
        if stochastic:
            def draw_batch(y, alpha, a_next, g_exact, _j=j, _L=L_trial):
                m = batch_size(config.D, a_next, alpha, _L, eps)
                stream = substream(seed, state.k + 1, _j)
                return minibatch_gradient(objective, y, m, stream, state.counters, g_exact), m
        cand = _candidate(state, objective, setup, L_trial, draw_batch)
        slack = 0.0 if factor == 0.0 else factor * eps * cand.alpha / cand.A_next
        if image is None:
            f_x = value(obj, cand.x_next, state.counters)
            dx = cand.x_next - cand.y_next
            if descent_check(cand.f_y, float(cand.g.dot(dx)),
                             setup.norms.primal(dx) ** 2, L_trial, slack, f_x):
                return _accept(state, cand, L_trial, j, f_x)
        else:
            duz = cand.uz - state.uz
            n = state.u.size
            if bregman_check(image, cand.z_y, duz[n:], duz[:n], cand.alpha / cand.A_next,
                             cand.g - cand.g_exact if stochastic else None,
                             L_trial, slack, state.L_trial, setup.norms, state.counters):
                accepted = _accept(state, cand, L_trial, j)
                accepted.f_x = _checked_value(image.psi(accepted.xz[n:]), None)
                return accepted
        j += 1
        if j > config.max_backtracks_per_iter:
            raise BacktrackLimitExceeded(
                f"no acceptable L after {config.max_backtracks_per_iter} doublings at k={state.k + 1}")
        L_trial *= 2.0


def init_phase(objective, setup: ProxSetup, config: SolverConfig, rng=None) -> SolverState:
    """k=0 state: x0 = u0 = argmin phi_0 with alpha_0 = A_0 = 1/L, where L is
    L_known (exact mode) or the doubled trial constant (adaptive modes, slack
    ratio alpha_0/A_0 = 1).  f(y0) and the exact gradient at y0 are evaluated
    once and reused across trials; only f(x0) (or, on the cached path, the
    Bregman term at y0) is recomputed per trial."""
    config.validate()
    obj = _base_objective(objective)
    image = obj.linear
    stochastic = config.mode == "sumst_stochastic_universal"
    if stochastic and not isinstance(objective, StochasticGradientOracle):
        raise ConfigError("sumst mode needs a StochasticGradientOracle")
    seed = 0 if rng is None else int(rng)
    mu_tilde = config.mu_tilde
    counters = EvalCounter()
    y0 = setup.center
    phi_base = initial_estimate(setup)
    z0 = g0_exact = None
    if image is not None:
        z0 = image.forward(y0)
        f0, g0_exact = _image_oracle(image, z0, counters, stochastic)
    elif stochastic:
        f0 = value(obj, y0, counters)
    else:
        f0, g0_exact = value_and_grad(obj, y0, counters)

    def state0(L_trial, j, m, u0, phi0, uz0, f_x=None):
        alpha0 = 1.0 / L_trial
        return SolverState(k=0, A=alpha0, alpha=alpha0, u=u0, x=u0, y=y0, phi=phi0,
                           L_trial=L_trial, j=j, m=m, mu_tilde=mu_tilde,
                           counters=counters, trace=Trace(), f_x=f_x, f_y=f0,
                           uz=uz0, xz=uz0)

    if config.mode == "mst_exact_L":
        L_trial = config.L_known
        phi0 = fold_estimate(phi_base, 1.0 / L_trial, y0, g0_exact, f0, mu_tilde, setup)
        u0 = composite_prox_solve(setup, phi0, obj.h)
        return state0(L_trial, 0, 1, u0, phi0,
                      None if image is None else np.concatenate((u0, image.forward(u0))))

    slack0 = config.slack_factor * (config.epsilon or 0.0)
    L_trial = config.L0
    j = 0
    while True:
        alpha0 = 1.0 / L_trial
        if stochastic:
            m0 = batch_size(config.D, alpha0, alpha0, L_trial, config.epsilon)
            g0 = minibatch_gradient(objective, y0, m0, substream(seed, 0, j), counters,
                                    g0_exact)
        else:
            g0, m0 = g0_exact, 1
        phi0 = fold_estimate(phi_base, alpha0, y0, g0, f0, mu_tilde, setup)
        u0 = composite_prox_solve(setup, phi0, obj.h)
        if image is None:
            f_x0 = value(obj, u0, counters)
            dx = u0 - y0
            passed = descent_check(f0, float(g0.dot(dx)), setup.norms.primal(dx) ** 2,
                                   L_trial, slack0, f_x0)
            uz0 = None
        else:
            z_u0 = image.forward(u0)
            # no constant was accepted before k = 0, so a zero step passes
            passed = bregman_check(image, z0, z_u0 - z0, u0 - y0, 1.0,
                                   g0 - g0_exact if stochastic else None,
                                   L_trial, slack0, 0.0, setup.norms, counters)
            if passed:
                f_x0 = _checked_value(image.psi(z_u0), None)
                uz0 = np.concatenate((u0, z_u0))
        if passed:
            return state0(L_trial, j, m0, u0, phi0, uz0, f_x0)
        j += 1
        if j > config.max_backtracks_per_iter:
            raise BacktrackLimitExceeded(
                f"no acceptable L0 after {config.max_backtracks_per_iter} doublings at k=0")
        L_trial *= 2.0


def gradient_mapping_residual(objective, setup: ProxSetup, x: np.ndarray, L: float,
                              counter: EvalCounter | None = None) -> float:
    """Primal-norm distance from x to the minimizer of the local composite model
    <grad f(x), z-x> + (L/2)||z-x||^2 + h(z) over Q; 0 iff x is stationary.

    Defined for the euclidean geometry; the entropy setup has no norm-squared
    model and raises UnsupportedGeometry (via the prox dispatch)."""
    if L <= 0:
        raise ConfigError("gradient mapping needs L > 0")
    obj = _base_objective(objective)
    if setup.geometry != "euclidean":
        from .errors import UnsupportedGeometry
        raise UnsupportedGeometry("gradient mapping residual is defined for the euclidean geometry")
    g = grad(obj, x, counter)
    # (L/2)||z-x||^2 = L*d(z) + L*<y0-x, z> + const with d(z) = 1/2||z-y0||^2
    model = EstimateFunction(d_scale=L, linear=g + L * (setup.center - x),
                             h_scale=1.0, constant=0.0)
    z = composite_prox_solve(setup, model, obj.h)
    return setup.norms.primal(x - z)


def _certified_bound(config: SolverConfig, A: float) -> float | None:
    r_sq = config.stopping.r_sq
    if r_sq is None:
        return None
    return r_sq / A + config.slack_factor * (config.epsilon or 0.0)


def _certified_target(config: SolverConfig) -> float:
    # total-budget reading: plain modes certify eps; the eps-slack modes
    # (amst-with-eps, sumst) certify 2*eps
    if config.mode in ("amst_adaptive", "sumst_stochastic_universal"):
        return 2.0 * config.epsilon
    return config.epsilon


def _should_stop(state: SolverState, objective, setup: ProxSetup, config: SolverConfig) -> bool:
    rule = config.stopping
    if rule.kind == "iterations_only":
        return False
    if rule.kind == "certified_gap":
        return _certified_bound(config, state.A) <= _certified_target(config)
    residual = gradient_mapping_residual(objective, setup, state.x, state.L_trial,
                                         state.counters)
    return residual <= rule.threshold


def _composite_value(obj: CompositeObjective, f: float | None, x: np.ndarray) -> float:
    """F(x), reusing f(x) when the method computed it (the sum composite_value forms)."""
    return obj.composite_value(x) if f is None else f + obj.h.value(x)


def _record_row(state: SolverState, objective, setup: ProxSetup, config: SolverConfig) -> None:
    obj = _base_objective(objective)
    counters = state.counters
    row = {
        "k": state.k, "A": state.A, "alpha": state.alpha, "L_trial": state.L_trial,
        "j": state.j, "m": state.m, "cum_f": counters.f_calls,
        "cum_grad": counters.grad_calls, "cum_stoch": counters.stochastic_grad_calls,
    }
    # observer quantities below are uncounted: they are evidence, not method
    # work.  F(x) and F(y) reuse the f values the method computed (state.f_x,
    # state.f_y); only the exact-L mode's f(x), which the method never needs,
    # is evaluated here, from the cached image z(x) when there is one.
    f = state.f_x
    if f is None and state.xz is not None:
        f = obj.linear.psi(state.xz[state.x.size:])
    f_x = _composite_value(obj, f, state.x)
    phi_at_u = estimate_value(setup, state.phi, obj.h, state.u)
    slack_abs = state.A * config.slack_factor * (config.epsilon or 0.0)
    row["cert_margin"] = phi_at_u + slack_abs - state.A * f_x
    if obj.known_optimum is not None:
        x_star, f_star = obj.known_optimum
        row["gap"] = f_x - f_star
        row["gap_y"] = _composite_value(obj, state.f_y, state.y) - f_star
        if x_star is not None:
            row["dist_u_sq"] = setup.norms.primal(state.u - x_star) ** 2
            row["dist_x_sq"] = setup.norms.primal(state.x - x_star) ** 2
            row["dist_y_sq"] = setup.norms.primal(state.y - x_star) ** 2
        else:
            row["dist_u_sq"] = row["dist_x_sq"] = row["dist_y_sq"] = math.nan
    else:
        row["gap"] = math.nan
        row["gap_y"] = math.nan
        row["dist_u_sq"] = row["dist_x_sq"] = row["dist_y_sq"] = math.nan
    state.trace.append_row(row)


def run(objective, setup: ProxSetup, config: SolverConfig, rng=None) -> RunReport:
    """Run the configured mode until its stopping rule fires or max_iters
    accepted iterates (including k=0) are recorded.

    A TriangleOptError raised after row k = 0 is recorded leaves with the
    partial RunReport as its ``report`` attribute: the trace up to the last
    recorded row, that row's iterate, and the oracle calls spent so far."""
    state = init_phase(objective, setup, config, rng)
    state.trace.meta["x0_y0_sq"] = setup.norms.primal(state.x - setup.center) ** 2
    _record_row(state, objective, setup, config)
    try:
        while len(state.trace) < config.max_iters:
            if _should_stop(state, objective, setup, config):
                break
            if config.mode == "mst_exact_L":
                cand = _candidate(state, objective, setup, config.L_known)
                nxt = _accept(state, cand, config.L_known, 0)
            else:
                nxt = backtrack_iteration(state, objective, setup, config, rng)
            if not math.isfinite(nxt.A) or nxt.A > A_OVERFLOW_LIMIT:
                raise CoefficientOverflow(f"A_k = {nxt.A:.3e} past the 1e300 guard at k={nxt.k}")
            _record_row(nxt, objective, setup, config)
            state = nxt
    except TriangleOptError as exc:
        exc.report = _report(state, config)
        raise
    return _report(state, config)


def _report(state: SolverState, config: SolverConfig) -> RunReport:
    counters = state.counters
    return RunReport(final_x=state.x, iterations=state.k,
                     total_f_calls=counters.f_calls,
                     total_grad_calls=counters.grad_calls,
                     total_stoch_calls=counters.stochastic_grad_calls,
                     trace=state.trace,
                     certified_gap=_certified_bound(config, state.A))
