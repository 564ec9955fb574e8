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

``init_phase`` picks once, from the objective, how a run keeps each point v
and reads f off it (``_cache_rule``): beside v it keeps grad f(v) under a
``QuadraticForm`` and z(v) under a ``LinearImage`` (one product per trial
each), and nothing otherwise.  y and x' are combinations of kept points, so
f(y) and grad f(y) need no product beyond an adjoint.  With a closed-form
Bregman term (the form's, or the image's ``psi_bregman``) the descent check
is f(x') - f(y) - <g, x' - y> <= L/2 ||x' - y||^2 + slack, free of the
cancellation in f(y) + <g, x' - y> - f(x'); a trial whose u does not move
passes it only at an L_trial no smaller than the last accepted one.  Without
one the check is that difference of f values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (BacktrackLimitExceeded, CoefficientOverflow, ConfigError,
                     TriangleOptError, UnsupportedGeometry, _checked)
from .oracles import (EvalCounter, TrialStreams, _checked_grad, _checked_value, grad,
                      minibatch_gradient, substream)
from .prox_geometry import (EstimateFunction, ProxSetup, composite_prox_solve,
                            estimate_value, initial_estimate)
from .traces import Trace


class Policy(NamedTuple):
    """What sets one mode apart inside the shared trial step."""

    checks: bool          # back-track on the descent check (else accept L_known)
    stochastic: bool      # mini-batch gradients: the objective's noise_model, variance D
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
_BLOCK_ROWS = 256  # rows whose evidence the observer computes at once
_BLOCK_CELLS = 1 << 14  # at most this many floats in each of a block's point buffers


@dataclass(frozen=True)
class StoppingRule:
    """iterations_only, gradient_mapping (threshold), or certified_gap (r_sq)."""

    kind: str = "iterations_only"
    threshold: float | None = None
    r_sq: float | None = None

    def __post_init__(self):
        if self.kind not in ("iterations_only", "gradient_mapping", "certified_gap"):
            raise ConfigError(f"unknown stopping rule {self.kind!r}")
        for name, kind in (("threshold", "gradient_mapping"), ("r_sq", "certified_gap")):
            value = getattr(self, name)
            if value is None and self.kind == kind:
                raise ConfigError(f"{kind} stopping needs a positive {name}")
            if value is not None:  # > 0 where the rule reads it
                _checked(name, value, 0 if self.kind == kind else None, above=True)


@dataclass(frozen=True)
class SolverConfig:
    """One run's settings, checked when the config is built: a bad value is
    a ConfigError naming its field.  D is the variance bound of sumst's
    gradient draws; it sizes the mini-batches and scales the gaussian noise."""

    mode: str
    L_known: float | None = None
    L0: float = 1.0
    mu: float = 0.0
    epsilon: float | None = None
    D: float | None = None
    max_iters: int = 100
    max_backtracks_per_iter: int = 60
    stopping: StoppingRule = field(default_factory=StoppingRule)

    def __post_init__(self):
        policy = POLICIES.get(self.mode) if isinstance(self.mode, str) else None
        if policy is None:
            raise ConfigError(f"unknown solver mode {self.mode!r}")
        # L0 and mu always hold a number; the others may be None where the mode does without
        needs = {"L_known": not policy.checks, "epsilon": policy.needs_epsilon,
                 "D": policy.stochastic}
        for name, above in (("L_known", True), ("L0", True), ("mu", False), ("epsilon", True),
                            ("D", False)):
            value = getattr(self, name)
            if value is None and name in needs:
                if needs[name]:
                    raise ConfigError(f'{self.mode} requires "{name}"')
                continue
            _checked(name, value, 0, above=above)
        for name in ("max_iters", "max_backtracks_per_iter"):
            _checked(name, getattr(self, name), 1, integer=True)
        if not isinstance(self.stopping, StoppingRule):
            raise ConfigError(f"stopping must be a StoppingRule, got {self.stopping!r}")
        if self.stopping.kind == "certified_gap" and self.epsilon is None:
            raise ConfigError("certified_gap stopping needs config.epsilon as its target")

    @property
    def slack_factor(self) -> float:
        """Accumulated-slack coefficient c: per-trial slack is c*eps*alpha/A."""
        return POLICIES[self.mode].slack if self.epsilon is not None else 0.0


class RunRecord(NamedTuple):
    """What a run fixes once, in ``init_phase``: the mode's policy row, mu~,
    the oracle counts, sumst's keyed Philox (else None), and the cache rule,
    the four callables of ``_cache_rule``."""

    policy: Policy
    mu_tilde: float
    counters: EvalCounter
    streams: TrialStreams | None
    cached: Callable          # v -> v as kept: [v; part(v)], or v alone
    value: Callable           # kept point -> f
    grad: Callable            # kept point -> grad f, uncounted and unchecked
    bregman: Callable | None  # (kept y, kept u' - u, r) -> the Bregman term; None: none


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
    # u and x as the run's cache rule keeps them, so that one combination
    # forms a point and its kept part together
    uz: np.ndarray
    xz: np.ndarray
    run: RunRecord
    # f at x and y as step read them; None only in init_phase's start state
    f_x: float | None = None
    f_y: float | None = None


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
    if not math.isfinite(a_next):  # A_k + alpha: not finite if either is not
        raise CoefficientOverflow("coefficient recursion left double range")
    # identity check in overflow-safe ratio form: (A_next/alpha)*(b/alpha) == L
    drift = (a_next / alpha) * (b / alpha) - L
    tolerance = 1e-12 * (L if L > 1.0 else 1.0)
    if drift > tolerance or -drift > tolerance:
        raise CoefficientOverflow(f"coefficient identity drifted by {abs(drift):.3e}")
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


def batch_size(D: float, A_next: float, alpha: float, L_trial: float, epsilon: float) -> int:
    """ceil(2*D*A_{k+1} / (L_trial * alpha_{k+1} * eps)), clamped to >= 1."""
    _checked("epsilon", epsilon, 0, above=True)
    return _batch_size(_checked("D", D, 0), A_next, alpha, L_trial, epsilon)


def _batch_size(D: float, A_next: float, alpha: float, L_trial: float, epsilon: float) -> int:
    """batch_size for a D and eps already checked (by SolverConfig in a run)."""
    if D == 0.0:
        return 1
    return max(1, math.ceil(2.0 * D * A_next / (L_trial * alpha * epsilon)))


def _cache_rule(objective, n: int) -> tuple:
    """(cached, value, grad, bregman) for a run on objective, in dimension n.

    Beside v, cached(v) keeps grad f(v) = H(v - c) under a QuadraticForm and
    z(v) under a LinearImage: one product each.  Otherwise it keeps nothing,
    and f is read through the objective's oracles as they are now.  With
    x' - y = r du and dw the difference of the kept parts of u' and u,
    bregman is f(x') - f(y) - <grad f(y), x' - y>: 1/2 r^2 <du, dw> under the
    form, psi_bregman(z(y), r dz) under an image that has one, else None."""
    image = objective.linear
    if image is None:
        value, smooth_grad = objective.smooth_value, objective.smooth_grad
        return (lambda v: v), value, (lambda v: np.asarray(smooth_grad(v), dtype=float)), None
    form = image.quadratic
    if form is not None:
        return ((lambda v: np.concatenate((v, form.hessian(v - form.center)))),
                (lambda vw: form.value + 0.5 * float((vw[:n] - form.center).dot(vw[n:]))),
                operator.itemgetter(slice(n, None)),  # grad f(v), kept
                (lambda yw, dw, r: 0.5 * (r * r * float(dw[:n].dot(dw[n:])))))
    return ((lambda v: np.concatenate((v, image.forward(v)))),
            (lambda vw: image.psi(vw[n:])),
            (lambda vw: image.adjoint(image.psi_grad(vw[n:]))),
            None if image.psi_bregman is None
            else (lambda yw, dw, r: image.psi_bregman(yw[n:], r * dw[n:])))


def _triangle(alpha: float, new: np.ndarray, a_old: np.ndarray | None,
              a_next: float) -> np.ndarray:
    """(alpha*new + A*old) / A_{k+1}, given a_old = A*old; new itself when A = 0
    (a_old None), where the combination is the identity but would not give
    its bits back."""
    return new if a_old is None else (alpha * new + a_old) / a_next


def step(state: SolverState, objective, setup: ProxSetup, config: SolverConfig) -> SolverState:
    """One accepted iteration, as the run's policy row (``state.run``) sets it.

    The exact-L mode accepts its one trial at L_known.  The checking modes
    double L from half the last accepted constant (from L0 in the A = 0 start
    state, where y is the center and f, grad f at y are evaluated once) until
    the descent check passes with slack c*eps*alpha/A_{k+1}; in sumst trial j
    draws its mini-batch from the run's keyed Philox set to the counter block
    (0, 0, j, k + 1).  Under a Bregman check, and in the exact-L mode, x and
    its kept part are formed for the accepted trial only, and f(x) is read
    off them checked and uncounted; the difference check forms them, and
    counts f(x), at every trial.  A sumst trial whose draws would take the
    stochastic count past 2**63 - 1 raises CoefficientOverflow.  y and x' are
    formed with their kept parts from the kept u and x (``_triangle``), with
    A x formed once."""
    rec = state.run
    policy, counters, mu_tilde = rec.policy, rec.counters, rec.mu_tilde
    stochastic = policy.stochastic
    A, n = state.A, state.u.size
    uz_old = state.uz
    a_xz = None if A == 0.0 else A * state.xz  # the A x term of every trial's y and x'
    eps = config.epsilon
    c_eps = policy.slack * eps if eps else 0.0
    L_floor = state.L_trial  # 0 in the start state, which has no accepted constant
    if not policy.checks:
        L_trial = config.L_known
    else:
        L_trial = state.L_trial / 2.0 if A > 0.0 else config.L0
    difference_check = policy.checks and rec.bregman is None
    # a finite_sum draw graded by the difference check never reads the exact
    # gradient: only the gaussian and none centres and the Bregman noise term do
    exact = not (difference_check and stochastic
                 and objective.noise_model.kind == "finite_sum")
    for j in range(config.max_backtracks_per_iter + 1):
        alpha, a_next = alpha_next(L_trial, A, mu_tilde)
        if j == 0 or A > 0.0:  # from the start state y is the center at every trial
            # y with its kept part, f(y) and the exact grad f(y): 1 f + 1 grad
            # call, or in sumst 1 f call, with the exact gradient left
            # uncounted for the mini-batch draw to use
            yz = _triangle(alpha, uz_old, a_xz, a_next)
            y = yz[:n]
            f_y = _checked_value(rec.value(yz), counters)
            g_exact = rec.grad(yz) if exact else None
            if not stochastic:
                g_exact = _checked_grad(g_exact, counters)
        g, m = g_exact, 1
        if stochastic:
            m = _batch_size(config.D, a_next, alpha, L_trial, eps)
            if counters.stochastic_grad_calls + m > COUNT_LIMIT:
                raise CoefficientOverflow(f"a batch of {m} draws takes the stochastic count "
                                          f"past 2**63 - 1 at k={state.k + 1}")
            stream = substream(rec.streams.seed, state.k + 1, j, rec.streams)
            g = minibatch_gradient(objective, y, m, stream, counters, g_exact, config.D)
        phi = fold_estimate(state.phi, alpha, y, g, f_y, mu_tilde, setup)
        u = composite_prox_solve(setup, phi, objective.h)
        slack = c_eps * alpha / a_next
        uz = rec.cached(u)
        f_x = xz = None
        passed = True
        if difference_check:
            xz = _triangle(alpha, uz, a_xz, a_next)
            f_x = _checked_value(rec.value(xz), counters)
            dx = xz[:n] - y
            passed = f_y + float(g.dot(dx)) + 0.5 * L_trial * setup.norm(dx) ** 2 + slack >= f_x
        elif policy.checks:
            # the Bregman form, counted as the f(x') call it replaces, with
            # x' - y = r du:  bregman - <g - grad f(y), r du> <= L/2 r^2 ||du||^2 + slack
            duz = uz - uz_old
            du, r = duz[:n], alpha / a_next
            bregman = rec.bregman(yz, duz, r)
            if stochastic:
                bregman -= r * float((g - g_exact).dot(du))
            bregman = _checked_value(bregman, counters)
            du_sq = setup.norm(du) ** 2
            # a zero step (du == 0) reads 0 <= slack at any L: it passes only at
            # an L no smaller than the last accepted one
            passed = ((du_sq != 0.0 or L_trial >= L_floor)
                      and bregman <= 0.5 * L_trial * (r * r * du_sq) + slack)
        if passed:
            if xz is None:
                xz = _triangle(alpha, uz, a_xz, a_next)
                f_x = _checked_value(rec.value(xz), None)
            return SolverState(k=state.k + 1, A=a_next, alpha=alpha, u=u, x=xz[:n], y=y,
                               phi=phi, L_trial=L_trial, j=j, m=m, uz=uz, xz=xz, run=rec,
                               f_x=f_x, f_y=f_y)
        L_trial *= 2.0
    raise BacktrackLimitExceeded(f"no acceptable L after {config.max_backtracks_per_iter} "
                                 f"doublings at k={state.k + 1}")


def init_phase(objective, setup: ProxSetup, config: SolverConfig, rng=None) -> SolverState:
    """The k = 0 state: ``step`` from the A = 0 start state u = x = y = center,
    phi_0 = d, whose first trial gives alpha_0 = A_0 = 1/L with L the known
    constant (exact mode) or L0, doubled until the check passes.  It fixes the
    run's record: mu~ = config.mu / setup.omega_tilde (omega_tilde belongs to
    the geometry), fresh counters, and the cache rule.  In sumst, which needs
    the objective's noise_model, it keys the run's Philox from rng (default
    0), which must be an integer >= 0."""
    policy = POLICIES[config.mode]
    streams = None
    if policy.stochastic:
        if objective.noise_model is None:
            raise ConfigError(f"{config.mode} needs an objective with a noise_model")
        streams = TrialStreams(0 if rng is None else rng)
    center = setup.center
    rec = RunRecord(policy, config.mu / setup.omega_tilde, EvalCounter(), streams,
                    *_cache_rule(objective, center.size))
    uz = rec.cached(center)
    start = SolverState(k=-1, A=0.0, alpha=0.0, u=center, x=center, y=center,
                        phi=initial_estimate(setup), L_trial=0.0, j=0, m=1, uz=uz, xz=uz,
                        run=rec)
    return step(start, objective, setup, config)


def gradient_mapping_residual(objective, setup: ProxSetup, x: np.ndarray, L: float,
                              counter: EvalCounter | None = None) -> float:
    """Primal-norm distance from x to the minimizer of the local composite model
    <grad f(x), z-x> + (L/2)||z-x||^2 + h(z) over Q; 0 iff x is stationary.

    Defined for the euclidean geometry; the entropy setup has no norm-squared
    model and raises UnsupportedGeometry (via the prox dispatch)."""
    _checked("L", L, 0, above=True)
    if setup.geometry != "euclidean":
        raise UnsupportedGeometry("gradient mapping residual is defined for the euclidean geometry")
    g = grad(objective, x, counter)
    # (L/2)||z-x||^2 = L*d(z) + L*<y0-x, z> + const with d(z) = 1/2||z-y0||^2
    model = EstimateFunction(d_scale=L, linear=g + L * (setup.center - x),
                             h_scale=1.0, constant=0.0)
    z = composite_prox_solve(setup, model, objective.h)
    return setup.norm(x - z)


def _certified_bound(config: SolverConfig, A: float) -> float | None:
    r_sq = config.stopping.r_sq
    if r_sq is None:
        return None
    return r_sq / A + config.slack_factor * (config.epsilon or 0.0)


def _should_stop(state: SolverState, objective, setup: ProxSetup, config: SolverConfig) -> bool:
    """Whether a rule other than iterations_only stops the run at this state."""
    rule = config.stopping
    if rule.kind == "certified_gap":
        # total-budget reading: the eps-slack modes (amst-with-eps, sumst) certify 2*eps
        return _certified_bound(config, state.A) <= state.run.policy.target * config.epsilon
    residual = gradient_mapping_residual(objective, setup, state.x, state.L_trial,
                                         state.run.counters)
    return residual <= rule.threshold


class _Evidence:
    """The observer of one run: the rows recorded since the last flush.

    ``_record_row`` copies a row's scalars and its u, x, y and phi.linear into
    fixed-size buffers.  ``flush`` computes the rows' cert_margin, gap, gap_y
    and squared distances to x* for the whole block at once, with the
    prox_geometry formulas applied to blocks of rows (each row gets the bits
    it would get alone), and appends the rows to the trace in one bulk append.
    The buffers hold at most _BLOCK_CELLS floats each, so a block is shorter
    in high dimension.  This work is uncounted: evidence, not method work."""

    def __init__(self, objective, setup: ProxSetup, config: SolverConfig, trace: Trace,
                 n: int):
        self.h = objective.h
        self.optimum = objective.known_optimum
        self.setup = setup
        self.trace = trace
        self.slack_factor = config.slack_factor
        self.epsilon = config.epsilon or 0.0
        self.size = min(_BLOCK_ROWS, _BLOCK_CELLS // max(n, 1))
        self.u, self.x, self.y, self.linear = np.empty((4, self.size, n))
        # per row: the trace's scalars, then f(x), f(y) and phi's scalars
        self.rows = [None] * self.size
        self.count = 0  # rows recorded since the last flush

    def flush(self) -> None:
        b, self.count = self.count, 0
        if not b:
            return
        (k, A, alpha, L_trial, j, m, cum_f, cum_grad, cum_stoch,
         f_x, f_y, d_scale, h_scale, constant) = zip(*self.rows[:b])
        A = np.array(A, dtype=float)
        u, x, y = self.u[:b], self.x[:b], self.y[:b]
        h, setup = self.h, self.setup
        phi = EstimateFunction(d_scale=np.array(d_scale, dtype=float), linear=self.linear[:b],
                               h_scale=np.array(h_scale, dtype=float),
                               constant=np.array(constant, dtype=float))
        # the row-by-row formulas were Python float arithmetic, which neither
        # warns on inf - inf nor on overflow
        with np.errstate(over="ignore", invalid="ignore"):
            F_x = np.array(f_x, dtype=float) + h.value(x)
            phi_at_u = estimate_value(setup, phi, h, u)
            cert_margin = phi_at_u + A * self.slack_factor * self.epsilon - A * F_x
            gap = gap_y = dist_u = dist_x = dist_y = np.full(b, math.nan)
            if self.optimum is not None:
                x_star, f_star = self.optimum
                gap = F_x - f_star
                gap_y = np.array(f_y, dtype=float) + h.value(y) - f_star
                if x_star is not None:
                    # squared as Python floats: numpy's square differs in the last bit
                    dist_u, dist_x, dist_y = (
                        [norm ** 2 for norm in setup.norm(v - x_star).tolist()]
                        for v in (u, x, y))
        self.trace.append_rows({
            "k": k, "A": A, "alpha": alpha, "L_trial": L_trial, "j": j, "m": m,
            "cum_f": cum_f, "cum_grad": cum_grad, "cum_stoch": cum_stoch,
            "cert_margin": cert_margin, "gap": gap, "gap_y": gap_y,
            "dist_u_sq": dist_u, "dist_x_sq": dist_x, "dist_y_sq": dist_y})


def _record_row(evidence: _Evidence, state: SolverState) -> None:
    """Record the state's row: copy it into the run's block, which is flushed
    into the trace when full.  F(x) and F(y) are built from state.f_x and
    state.f_y, the f values step read and checked: the observer calls no
    oracle."""
    i = evidence.count
    phi = state.phi
    counters = state.run.counters
    evidence.u[i] = state.u
    evidence.x[i] = state.x
    evidence.y[i] = state.y
    evidence.linear[i] = phi.linear
    evidence.rows[i] = (state.k, state.A, state.alpha, state.L_trial, state.j, state.m,
                        counters.f_calls, counters.grad_calls, counters.stochastic_grad_calls,
                        state.f_x, state.f_y, phi.d_scale, phi.h_scale, phi.constant)
    evidence.count = i + 1
    if i + 1 == evidence.size:
        evidence.flush()


def run(objective, setup: ProxSetup, config: SolverConfig, rng=None) -> RunReport:
    """Run the configured mode until its stopping rule fires or max_iters
    accepted iterates (including k=0) are recorded.

    A TriangleOptError raised after row k = 0 is recorded leaves with the
    partial RunReport as its ``report`` attribute: the trace up to the last
    recorded row, that row's iterate, and the oracle calls spent so far."""
    state = init_phase(objective, setup, config, rng)
    trace = Trace(meta={"x0_y0_sq": setup.norm(state.x - setup.center) ** 2})
    evidence = _Evidence(objective, setup, config, trace, state.u.size)
    _record_row(evidence, state)
    stops = config.stopping.kind != "iterations_only"
    try:
        while state.k + 1 < config.max_iters:
            if stops and _should_stop(state, objective, setup, config):
                break
            nxt = step(state, objective, setup, config)
            if not nxt.A <= A_OVERFLOW_LIMIT:  # true for nan and inf as well
                raise CoefficientOverflow(f"A_k = {nxt.A:.3e} past the 1e300 guard at k={nxt.k}")
            _record_row(evidence, nxt)
            state = nxt
    except TriangleOptError as exc:
        evidence.flush()
        exc.report = _report(state, config, trace)
        raise
    evidence.flush()
    return _report(state, config, trace)


def _report(state: SolverState, config: SolverConfig, trace: Trace) -> RunReport:
    counters = state.run.counters
    return RunReport(final_x=state.x, iterations=state.k,
                     total_f_calls=counters.f_calls,
                     total_grad_calls=counters.grad_calls,
                     total_stoch_calls=counters.stochastic_grad_calls,
                     trace=trace,
                     certified_gap=_certified_bound(config, state.A))


__all__ = ["MODES", "StoppingRule", "SolverConfig", "SolverState", "RunReport", "alpha_next",
           "fold_estimate", "batch_size", "step", "init_phase", "gradient_mapping_residual",
           "run"]
