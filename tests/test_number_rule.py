"""The number rule, entry point by entry point: each scalar argument refuses a
bool, a string, NaN, an infinity and a value below its range with a
TriangleOptError of its layer's class (DomainError in prox_geometry,
ValidationError in the JSON loader, ConfigError elsewhere) whose message
names the argument; none raises a bare TypeError or ValueError, and none
returns."""

import dataclasses
import json
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from triangle_opt import (ConfigError, DomainError, NoiseModel, ProblemSpec,
                          ProxSetup, SimpleTerm, SolverConfig, StoppingRule, Trace,
                          TriangleOptError, TrialStreams, ValidationError, batch_size, box,
                          check_bounds, entropy_setup, euclidean_ball, euclidean_setup,
                          finite_difference_gradient, free_space, gradient_mapping_residual,
                          holder_majorant_L,
                          inner_iterations, load_experiment, make_problem, minibatch_gradient,
                          recenter, regularize, restart_run, substream)

_QUAD = make_problem("quadratic", dimension=3, seed=0)
_NOISY = dataclasses.replace(_QUAD.objective, noise_model=NoiseModel(kind="gaussian"))
_SCALARS = (True, "2", math.nan, math.inf)  # each refused by every scalar argument
_VECTORS = (True, "2", math.nan, [math.nan, 0.0], ["a", 0.0], np.zeros((2, 2)))


def _load(**changes):
    """load_experiment of a small valid experiment, each change merged into
    its section (a top-level key when the value is not a dict)."""
    config = {"problem": {"kind": "quadratic", "dimension": 3, "seed": 0},
              "solver": {"mode": "mst_exact_L", "L": 1.0}, "seeds": [0], "max_iters": 5}
    for key, value in changes.items():
        config[key] = {**config.get(key, {}), **value} if isinstance(value, dict) else value
    return load_experiment(json.dumps(config))


class Row(NamedTuple):
    call: Callable         # call(bad value) must raise
    names: tuple           # the message names the argument by one of these
    error: type            # the exact class raised
    below: object = None   # a value below the argument's range, if it has one
    bad: tuple = _SCALARS


ROWS = {
    # solvers
    "StoppingRule-threshold": Row(lambda v: StoppingRule("gradient_mapping", threshold=v),
                                  ("threshold",), ConfigError, 0.0),
    "StoppingRule-r_sq": Row(lambda v: StoppingRule("certified_gap", r_sq=v), ("r_sq",),
                             ConfigError, -1.0),
    "SolverConfig-L_known": Row(lambda v: SolverConfig("mst_exact_L", L_known=v), ("L_known",),
                                ConfigError, 0.0),
    "SolverConfig-L0": Row(lambda v: SolverConfig("amst_adaptive", L0=v), ("L0",), ConfigError,
                           0.0),
    "SolverConfig-mu": Row(lambda v: SolverConfig("amst_adaptive", mu=v), ("mu",), ConfigError,
                           -0.5),
    "SolverConfig-epsilon": Row(lambda v: SolverConfig("umst_universal", epsilon=v), ("epsilon",),
                                ConfigError, 0.0),
    "SolverConfig-D": Row(lambda v: SolverConfig("sumst_stochastic_universal", epsilon=0.1, D=v),
                          ("D must",), ConfigError, -1.0),
    "SolverConfig-max_iters": Row(lambda v: SolverConfig("amst_adaptive", max_iters=v),
                                  ("max_iters",), ConfigError, 0),
    "SolverConfig-max_backtracks_per_iter": Row(
        lambda v: SolverConfig("amst_adaptive", max_backtracks_per_iter=v),
        ("max_backtracks_per_iter",), ConfigError, 0),
    "batch_size-D": Row(lambda v: batch_size(v, 1.0, 1.0, 1.0, 0.1), ("D must",), ConfigError,
                        -1.0),
    "batch_size-epsilon": Row(lambda v: batch_size(1.0, 1.0, 1.0, 1.0, v), ("epsilon",),
                              ConfigError, 0.0),
    "gradient_mapping_residual-L": Row(
        lambda v: gradient_mapping_residual(_QUAD.objective, _QUAD.setup, np.ones(3), v),
        ("L must",), ConfigError, 0.0),
    # oracles
    "TrialStreams-seed": Row(TrialStreams, ("seed",), ConfigError, -1),
    "minibatch_gradient-m": Row(
        lambda v: minibatch_gradient(_NOISY, np.zeros(3), v, substream(0, 0, 0), D=1.0),
        ("m must",), ConfigError, 0),
    "minibatch_gradient-D": Row(
        lambda v: minibatch_gradient(_NOISY, np.zeros(3), 1, substream(0, 0, 0), D=v),
        ("D must",), ConfigError, -1.0),
    "finite_difference_gradient-step": Row(
        lambda v: finite_difference_gradient(_QUAD.objective, np.zeros(3), v), ("step",),
        ConfigError, 0.0),
    "NoiseModel-components": Row(lambda v: NoiseModel("finite_sum", components=v),
                                 ("components",), ConfigError, [],
                                 (*_SCALARS, None, 3, [1.0], (abs, "x"))),
    # zoo
    "ProblemSpec-dimension": Row(lambda v: ProblemSpec("quadratic", v), ("dimension",),
                                 ConfigError, 0),
    "ProblemSpec-seed": Row(lambda v: ProblemSpec("quadratic", 3, v), ("seed",), ConfigError, -1),
    "make_problem-lam_min": Row(lambda v: make_problem("quadratic", 3, lam_min=v),
                                ("lam_min",), ConfigError, 0.0),
    "make_problem-lam_max": Row(lambda v: make_problem("quadratic", 3, lam_min=0.5, lam_max=v),
                                ("lam_max",), ConfigError, 0.25),
    "make_problem-x_star_norm": Row(lambda v: make_problem("quadratic", 3, x_star_norm=v),
                                    ("x_star_norm",), ConfigError),
    "make_problem-lam": Row(lambda v: make_problem("lasso", 3, lam=v), ("lam",), ConfigError,
                            -0.5),
    "make_problem-p": Row(lambda v: make_problem("holder_norm_power", 3, p=v), ("option p must",),
                          ConfigError, 0.5, (*_SCALARS, 2.5)),
    # prox_geometry
    "ProxSetup-omega_tilde": Row(
        lambda v: ProxSetup("euclidean", np.zeros(2), free_space(), omega_tilde=v),
        ("omega_tilde",), DomainError, 0.5),
    "ProxSetup-center": Row(lambda v: ProxSetup("euclidean", v, free_space()), ("center",),
                            DomainError, bad=_VECTORS),
    "euclidean_setup-omega_tilde": Row(lambda v: euclidean_setup(np.zeros(2), omega_tilde=v),
                                       ("omega_tilde",), DomainError, 0.5),
    "euclidean_setup-center": Row(euclidean_setup, ("center",), DomainError, bad=_VECTORS),
    "recenter-new_center": Row(lambda v: recenter(euclidean_setup(np.zeros(2)), v),
                               ("center",), DomainError, bad=_VECTORS),
    "entropy_setup-dimension": Row(entropy_setup, ("dimension",), DomainError, 1,
                                   (*_SCALARS, 2.5)),
    "entropy_setup-omega_tilde": Row(lambda v: entropy_setup(3, omega_tilde=v),
                                     ("omega_tilde",), DomainError, 0.5),
    "euclidean_ball-radius": Row(lambda v: euclidean_ball(np.zeros(2), v), ("radius",),
                                 DomainError, 0.0),
    "euclidean_ball-center": Row(lambda v: euclidean_ball(v, 1.0), ("center",), DomainError,
                                 bad=(*_VECTORS, [math.inf, 0.0])),
    # box bounds may be infinite, so inf is not among their bad values
    "box-lower": Row(lambda v: box(v, [1.0, 1.0]), ("lower",), DomainError,
                     bad=(True, "2", ["a", 0.0], np.zeros((2, 2)))),
    "box-upper": Row(lambda v: box([0.0, 0.0], v), ("upper",), DomainError,
                     bad=(True, "2", ["a", 0.0], np.zeros((2, 2)))),
    "SimpleTerm-lam": Row(lambda v: SimpleTerm("l1", v), ("lam",), DomainError, -0.5),
    # meta_strategies
    "inner_iterations-L": Row(lambda v: inner_iterations(v, 1.0, 1.0), ("L must",), ConfigError,
                              0.0),
    "inner_iterations-mu": Row(lambda v: inner_iterations(1.0, v, 1.0), ("mu",), ConfigError,
                               0.0),
    "inner_iterations-omega": Row(lambda v: inner_iterations(1.0, 1.0, v), ("omega",),
                                  ConfigError, 0.5),
    "regularize-epsilon": Row(lambda v: regularize(_QUAD.objective, _QUAD.setup, v, 1.0),
                              ("epsilon",), ConfigError, 0.0),
    "regularize-R_sq": Row(lambda v: regularize(_QUAD.objective, _QUAD.setup, 0.1, v),
                           ("R_sq",), ConfigError, 0.0, (*_SCALARS, None)),
    "restart_run-K": Row(lambda v: restart_run(_QUAD.objective, _QUAD.setup, 1.0, 0.1, 1.0, v),
                         ("K must",), ConfigError, -1, (*_SCALARS, 1.5)),
    "restart_run-L": Row(lambda v: restart_run(_QUAD.objective, _QUAD.setup, v, 0.1, 1.0, 1),
                         ("L must",), ConfigError, 0.0),
    "holder_majorant_L-L_nu": Row(lambda v: holder_majorant_L(v, 0.5, 1.0), ("L_nu",),
                                  ConfigError, 0.0),
    "holder_majorant_L-nu": Row(lambda v: holder_majorant_L(1.0, v, 1.0), ("nu",), ConfigError,
                                -0.5, (*_SCALARS, 1.5)),
    "holder_majorant_L-delta": Row(lambda v: holder_majorant_L(1.0, 0.5, v), ("delta",),
                                   ConfigError, 0.0),
    # harness: the JSON loader names a key's type error by the key, and
    # wraps its owner's range error, which names the field
    "load_experiment-solver.L": Row(lambda v: _load(solver={"L": v}),
                                    ('"solver.L"', "L_known"), ValidationError, 0.0),
    "load_experiment-solver.max_backtracks": Row(
        lambda v: _load(solver={"max_backtracks": v}),
        ('"solver.max_backtracks"', "max_backtracks_per_iter"), ValidationError, 0),
    "load_experiment-epsilon": Row(lambda v: _load(epsilon=v), ('"epsilon"', "epsilon"),
                                   ValidationError, 0.0),
    "load_experiment-max_iters": Row(lambda v: _load(max_iters=v), ("max_iters",),
                                     ValidationError, 0),
    "load_experiment-seeds": Row(lambda v: _load(seeds=[1, v]), ('"seeds"',), ValidationError,
                                 -1),
    "load_experiment-prox.omega_tilde": Row(
        lambda v: _load(prox={"omega_tilde": v}), ("omega_tilde",), ValidationError, 0.5),
    "load_experiment-stopping.threshold": Row(
        lambda v: _load(solver={"stopping": {"kind": "gradient_mapping", "threshold": v}}),
        ("threshold",), ValidationError, 0.0),
    "load_experiment-problem.dimension": Row(
        lambda v: _load(problem={"dimension": v}), ("dimension",), ValidationError, 0),
    "load_experiment-problem.lam_min": Row(
        lambda v: _load(problem={"lam_min": v}), ("lam_min",), ValidationError, 0.0),
    "check_bounds-L": Row(lambda v: check_bounds(Trace(), "t1", {"L": v, "R2": 1.0}),
                          ("'L'",), ConfigError, 0.0),
    "check_bounds-R2": Row(lambda v: check_bounds(Trace(), "t1", {"L": 1.0, "R2": v}),
                           ("'R2'",), ConfigError, -1.0),
    "check_bounds-tol": Row(lambda v: check_bounds(Trace(), "t1", {"L": 1.0, "R2": 1.0,
                                                                   "tol": v}),
                            ("'tol'",), ConfigError, -1e-9),
}

CASES = [pytest.param(name, value, id=f"{name}-{value!r}"[:80])
         for name, row in ROWS.items()
         for value in (*row.bad, *(() if row.below is None else (row.below,)))]


@pytest.mark.parametrize("name, value", CASES)
def test_a_bad_value_is_a_typed_error_naming_its_argument(name, value):
    row = ROWS[name]
    with pytest.raises(TriangleOptError) as info:
        row.call(value)
    assert info.type is row.error
    assert any(argument in str(info.value) for argument in row.names), str(info.value)


def test_the_rule_takes_numpy_numbers_and_keeps_the_values():
    assert inner_iterations(np.float64(8.0), np.float32(1.0), np.int64(1)) == 8
    assert euclidean_setup([0.0, 1.0], omega_tilde=np.float64(2.0)).omega_tilde == 2.0
    assert restart_run(_QUAD.objective, _QUAD.setup, 1.0, 0.5, 1.0, np.int64(0)).iterations == 0
    assert NoiseModel("finite_sum", components=[abs]).components == [abs]
    assert ProxSetup("euclidean", [1, 2], free_space()).center.dtype == np.float64
    np.testing.assert_array_equal(box([-math.inf, 0.0], [math.inf, 1.0]).upper, [math.inf, 1.0])


def test_a_lazy_component_sequence_is_taken_on_its_len():
    class Lazy:
        def __len__(self):
            return 10 ** 12

        def __getitem__(self, i):
            raise AssertionError("a component was made at construction")

    NoiseModel("finite_sum", components=Lazy())



def test_regularize_refuses_a_mu_that_overflows():
    # each argument keeps the rule, but epsilon / (2 R_sq) leaves double range
    with pytest.raises(ConfigError, match="regularize overflows"):
        regularize(_QUAD.objective, _QUAD.setup, 1e300, 1e-10)


@pytest.mark.parametrize("seeds, message", [
    ([1, True], '"seeds" must be an integer, got True'),  # True == 1, but is no seed
    ([1, 1.0], '"seeds" must be an integer, got 1.0'),
    ([0, 0, -1], '"seeds" lists seed 0 more than once'),
])
def test_a_bad_seed_is_named_before_a_repeat_and_a_repeat_before_a_negative(seeds, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _load(seeds=seeds)
