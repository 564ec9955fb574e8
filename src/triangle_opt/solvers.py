"""The similar-triangles solver family.

The four modes are one trial step plus a per-mode policy row (``POLICIES``).
A trial at a constant L makes the coefficient update, the estimate-function
fold, a single prox step and the triangle interpolation; ``step`` runs trials
until one is accepted, and ``init_phase`` is ``step`` from the A = 0 start
state.  The row says whether the descent check runs, whether the gradient is a
mini-batch, the slack factor c and the certified target:

* ``mst_exact_L``: the Lipschitz constant is known; its one trial is accepted.
  With ``mu > 0`` the strongly convex coefficient recursion is used.
* ``amst_adaptive``: per-iteration doubling of a trial constant with a warm
  start at half the previously accepted value; slack 0, or eps*alpha/A when a
  target accuracy is configured.
* ``umst_universal``: same loop with slack eps*alpha/(2A); the slack is what
  lets the doubling terminate for merely Hölder-continuous gradients, without
  knowing the exponent.
* ``sumst_stochastic_universal``: slack 3*eps*alpha/(2A) and mini-batched
  stochastic gradients with the batch size tied to the trial constant; a fresh
  batch is drawn at every backtracking trial.  Trial j of iteration k draws from
  the counter block (0, 0, j, k) of one Philox that the run keys from its seed
  (``oracles.substream``).

The per-iterate certificate A_k F(x^k) <= phi_k(u^k) + A_k * c * eps (with the
mode's accumulated slack factor c) is recorded in the trace and drives the
certified-gap stopping rule and the reported gap bound R^2/A_N + c*eps.

Every run sees f as psi(z(x)) with z affine: the objective's own
``LinearImage``, or, when it has none, the identity image z = x, psi = f,
psi' = grad f, which ``init_phase`` builds once per run.  The state keeps z(u)
(one forward product per trial) and z(x) (a combination of images), so z(y)
costs no product and f(y), grad f(y) cost one adjoint product.  When the image
has a ``psi_bregman``, the descent check takes its Bregman form
D_psi(z(y), z(x) - z(y)) <= L/2 ||x - y||^2 + slack, which is free of the
cancellation in f(y) + <g, x - y> - f(x); a trial whose u does not move passes
it only at an L_trial no smaller than the last accepted one.  Without one (the
identity image among others) the check is that difference, f(y) + <g, x - y> +
L/2 ||x - y||^2 + slack >= f(x).

When the image also carries a ``QuadraticForm`` (f(x) = value + 1/2 <x - c,
H(x - c)>), grad f is affine and the state keeps grad f(u) and grad f(x) in
place of the images.  grad f(y) is then the combination that forms y, f(v) =
value + 1/2 <v - c, grad f(v)> at any cached point, and a trial makes one
product, H(u' - c).  The Bregman term of the check is 1/2 r^2 <du, d grad f>
with x' - y = r du.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (BacktrackLimitExceeded, CoefficientOverflow, ConfigError,
                     TriangleOptError)
from .oracles import (CompositeObjective, EvalCounter, LinearImage, StochasticGradientOracle,
                      TrialStreams, _checked_grad, _checked_value, grad, minibatch_gradient,
                      substream)
from .prox_geometry import (EstimateFunction, ProxSetup, composite_prox_solve,
                            estimate_value, initial_estimate)
from .traces import Trace


class Policy(NamedTuple):
    """What sets one mode apart inside the shared trial step."""

    checks: bool          # back-track on the descent check (else accept L_known)
    stochastic: bool      # mini-batch gradients, from a StochasticGradientOracle
    needs_epsilon: bool   # eps is required, not an option
    slack: float          # c: per-trial slack c*eps*alpha/A_{k+1} when eps is given
    target: float         # certified_gap stops at the bound <= target*eps


POLICIES = {  # checks, stochastic, needs_epsilon, slack, target
    "mst_exact_L": Policy(False, False, False, 0.0, 1.0),
    "amst_adaptive": Policy(True, False, False, 1.0, 2.0),
    "umst_universal": Policy(True, False, True, 0.5, 1.0),
    "sumst_stochastic_universal": Policy(True, True, True, 1.5, 2.0),
}
MODES = tuple(POLICIES)
A_OVERFLOW_LIMIT = 1e300
COUNT_LIMIT = 2**63 - 1  # the int64 range of the trace's count columns


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
        policy = POLICIES.get(self.mode)
        if policy is None:
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        for name in ("L_known", "L0", "mu", "omega_tilde", "epsilon", "D"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not policy.checks and (self.L_known is None or self.L_known <= 0):
            raise ConfigError(f"{self.mode} requires a positive L_known")
        if policy.needs_epsilon and (self.epsilon is None or self.epsilon <= 0):
            raise ConfigError(f"{self.mode} requires a positive epsilon")
        if policy.stochastic and self.D is None:
            raise ConfigError(f"{self.mode} requires the variance bound D")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon must be positive when given")
        if self.D is not None and self.D < 0:
            raise ConfigError("D must be nonnegative")
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
        return POLICIES[self.mode].slack if self.epsilon is not None else 0.0


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
    # the run's image of f: the objective's LinearImage, or the identity image
    image: LinearImage
    # [u; z(u)] and [x; z(x)] stacked, so that one combination forms a point
    # and its image together; under a QuadraticForm, [u; grad f(u)] and
    # [x; grad f(x)] instead
    uz: np.ndarray
    xz: np.ndarray
    # f at x and y as the method computed them, or None where it computed none
    f_x: float | None = None
    f_y: float | None = None
    # in sumst, the run's one keyed Philox, re-positioned for each trial
    streams: TrialStreams | None = None


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


def _base_objective(objective) -> CompositeObjective:
    if isinstance(objective, StochasticGradientOracle):
        return objective.base
    return objective


def _triangle(alpha: float, new: np.ndarray, A: float, old: np.ndarray,
              a_next: float) -> np.ndarray:
    """(alpha*new + A*old) / A_{k+1}; new itself when A = 0, where the
    combination is the identity but would not give its bits back."""
    return new if A == 0.0 else (alpha * new + A * old) / a_next


def _identity_image(obj: CompositeObjective) -> LinearImage:
    """f as psi(z) with z = x: psi and psi' are the objective's value and
    gradient oracles as they are now, and there is no Bregman form."""
    return LinearImage(forward=lambda v: v, adjoint=lambda w: np.asarray(w, dtype=float),
                       psi=obj.smooth_value, psi_grad=obj.smooth_grad)


def _cached(image: LinearImage, v: np.ndarray) -> np.ndarray:
    """[v; grad f(v)] under a QuadraticForm, else [v; z(v)]: one product."""
    form = image.quadratic
    w = image.forward(v) if form is None else form.hessian(v - form.center)
    return np.concatenate((v, w))


def _cached_value(image: LinearImage, vz: np.ndarray, n: int) -> float:
    """f(v) from a cached [v; z(v)], or from [v; grad f(v)] under a QuadraticForm."""
    form = image.quadratic
    if form is None:
        return image.psi(vz[n:])
    return form.value + 0.5 * float((vz[:n] - form.center).dot(vz[n:]))


def _oracle_at_y(state: SolverState, alpha: float, a_next: float, stochastic: bool):
    """y, its cached part (z(y) or grad f(y)), f(y) and the exact grad f(y):
    1 f + 1 grad call, or in sumst 1 f call, with the exact gradient left
    uncounted for the mini-batch draw to use."""
    counters = state.counters
    image = state.image
    n = state.u.size
    yz = _triangle(alpha, state.uz, state.A, state.xz, a_next)
    y, z = yz[:n], yz[n:]
    f_y = _checked_value(_cached_value(image, yz, n), counters)
    # under a QuadraticForm z is grad f(y) already, at no product
    g = z if image.quadratic is not None else image.adjoint(image.psi_grad(z))
    return y, z, f_y, (g if stochastic else _checked_grad(g, counters))


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
    return _bregman_passes(image.psi_bregman(z_y, r * dz), du, r, noise, L_trial, slack,
                           L_floor, norms, counter)


def _bregman_passes(bregman: float, du: np.ndarray, r: float, noise, L_trial: float,
                    slack: float, L_floor: float, norms, counter: EvalCounter | None) -> bool:
    """The comparison of ``bregman_check``, given its Bregman term."""
    du_sq = norms.primal(du) ** 2
    if noise is not None:
        bregman -= r * float(noise.dot(du))
    bregman = _checked_value(bregman, counter)
    if du_sq == 0.0 and L_trial < L_floor:
        return False
    return bregman <= 0.5 * L_trial * (r * r * du_sq) + slack


def step(state: SolverState, objective, setup: ProxSetup, config: SolverConfig,
         rng=None) -> SolverState:
    """One accepted iteration, as the mode's row in POLICIES sets it.

    The exact-L mode accepts its one trial at L_known.  The checking modes
    double L from half the last accepted constant (from L0 in the A = 0 start
    state, where y is the center and f, grad f at y are evaluated once) until
    the descent check passes with slack c*eps*alpha/A_{k+1}; in sumst trial j
    draws its mini-batch from substream(rng, k + 1, j): the state's keyed
    Philox (``state.streams``, from ``init_phase``) set to the counter block
    (0, 0, j, k + 1), or a fresh one keyed from rng if the state has none for
    that seed.  Under a Bregman check x and its cached part are formed for the
    accepted trial only; the difference check forms them at every trial.  A
    sumst trial whose draws would take the stochastic count past 2**63 - 1
    raises CoefficientOverflow."""
    policy = POLICIES[config.mode]
    obj = _base_objective(objective)
    image = state.image
    counters = state.counters
    A, n = state.A, state.u.size
    c_eps = config.slack_factor * (config.epsilon or 0.0)
    L_floor = state.L_trial  # 0 in the start state, which has no accepted constant
    if not policy.checks:
        L_trial = config.L_known
    else:
        L_trial = state.L_trial / 2.0 if A > 0.0 else config.L0
    at_y = None
    for j in range(config.max_backtracks_per_iter + 1):
        alpha, a_next = alpha_next(L_trial, A, state.mu_tilde)
        if at_y is None or A > 0.0:  # from the start state y is the center at every trial
            at_y = _oracle_at_y(state, alpha, a_next, policy.stochastic)
        y, z_y, f_y, g_exact = at_y
        g, m = g_exact, 1
        if policy.stochastic:
            m = batch_size(config.D, a_next, alpha, L_trial, config.epsilon)
            if counters.stochastic_grad_calls + m > COUNT_LIMIT:
                raise CoefficientOverflow(f"a batch of {m} draws takes the stochastic count "
                                          f"past 2**63 - 1 at k={state.k + 1}")
            stream = substream(0 if rng is None else int(rng), state.k + 1, j, state.streams)
            g = minibatch_gradient(objective, y, m, stream, counters, g_exact)
        phi = fold_estimate(state.phi, alpha, y, g, f_y, state.mu_tilde, setup)
        u = composite_prox_solve(setup, phi, obj.h)
        slack = c_eps if A == 0.0 else c_eps * alpha / a_next
        uz = _cached(image, u)
        f_x = xz = None
        passed = True
        if policy.checks and image.quadratic is None and image.psi_bregman is None:
            # no Bregman form: the difference check at x' from the stacked combination
            xz = _triangle(alpha, uz, A, state.xz, a_next)
            f_x = _checked_value(_cached_value(image, xz, n), counters)
            dx = xz[:n] - y
            passed = descent_check(f_y, float(g.dot(dx)), setup.norms.primal(dx) ** 2,
                                   L_trial, slack, f_x)
        elif policy.checks:
            duz = uz - state.uz
            du, r = duz[:n], alpha / a_next
            noise = g - g_exact if policy.stochastic else None
            if image.quadratic is None:
                passed = bregman_check(image, z_y, duz[n:], du, r, noise, L_trial, slack,
                                       L_floor, setup.norms, counters)
            else:  # f(x') - f(y) - <grad f(y), x' - y> = 1/2 r^2 <du, d grad f>
                passed = _bregman_passes(0.5 * (r * r * float(du.dot(duz[n:]))), du, r,
                                         noise, L_trial, slack, L_floor, setup.norms, counters)
        if passed:
            if xz is None:
                xz = _triangle(alpha, uz, A, state.xz, a_next)
                if policy.checks:
                    f_x = _checked_value(_cached_value(image, xz, n), None)
            return SolverState(k=state.k + 1, A=a_next, alpha=alpha, u=u, x=xz[:n], y=y,
                               phi=phi, L_trial=L_trial, j=j, m=m, mu_tilde=state.mu_tilde,
                               counters=counters, trace=state.trace, image=image, uz=uz,
                               xz=xz, f_x=f_x, f_y=f_y, streams=state.streams)
        L_trial *= 2.0
    raise BacktrackLimitExceeded(f"no acceptable L after {config.max_backtracks_per_iter} "
                                 f"doublings at k={state.k + 1}")


def init_phase(objective, setup: ProxSetup, config: SolverConfig, rng=None) -> SolverState:
    """The k = 0 state: ``step`` from the A = 0 start state u = x = y = center,
    phi_0 = d, whose first trial gives alpha_0 = A_0 = 1/L with L the known
    constant (exact mode) or L0, doubled until the check passes.  In sumst it
    keys the run's Philox from rng (default 0), which must be an integer >= 0."""
    config.validate()
    streams = None
    if POLICIES[config.mode].stochastic:
        if not isinstance(objective, StochasticGradientOracle):
            raise ConfigError(f"{config.mode} needs a StochasticGradientOracle")
        seed = 0 if rng is None else rng
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(f"{config.mode} needs an integer seed >= 0, got {rng!r}")
        streams = TrialStreams(seed)
    obj = _base_objective(objective)
    image = obj.linear if obj.linear is not None else _identity_image(obj)
    center = setup.center
    uz = _cached(image, center)
    start = SolverState(k=-1, A=0.0, alpha=0.0, u=center, x=center, y=center,
                        phi=initial_estimate(setup), L_trial=0.0, j=0, m=1,
                        mu_tilde=config.mu_tilde, counters=EvalCounter(), trace=Trace(),
                        image=image, uz=uz, xz=uz, streams=streams)
    return step(start, objective, setup, config, rng)


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


def _should_stop(state: SolverState, objective, setup: ProxSetup, config: SolverConfig) -> bool:
    rule = config.stopping
    if rule.kind == "iterations_only":
        return False
    if rule.kind == "certified_gap":
        # total-budget reading: the eps-slack modes (amst-with-eps, sumst) certify 2*eps
        return (_certified_bound(config, state.A)
                <= POLICIES[config.mode].target * config.epsilon)
    residual = gradient_mapping_residual(objective, setup, state.x, state.L_trial,
                                         state.counters)
    return residual <= rule.threshold


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
    # is evaluated here, from the cached part of x.
    f = state.f_x
    if f is None:
        f = _cached_value(state.image, state.xz, state.x.size)
    f_x = f + obj.h.value(state.x)
    phi_at_u = estimate_value(setup, state.phi, obj.h, state.u)
    slack_abs = state.A * config.slack_factor * (config.epsilon or 0.0)
    row["cert_margin"] = phi_at_u + slack_abs - state.A * f_x
    if obj.known_optimum is not None:
        x_star, f_star = obj.known_optimum
        row["gap"] = f_x - f_star
        row["gap_y"] = state.f_y + obj.h.value(state.y) - f_star
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
            nxt = step(state, objective, setup, config, rng)
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
