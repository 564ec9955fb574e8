"""triangle_opt: a similar-triangles solver family for composite convex
optimization, with exact-L, strongly convex, adaptive, universal, and
stochastic-universal modes, restart/regularization meta-strategies, and a
benchmark harness that grades runs against the methods' guarantees."""

from .errors import (BacktrackLimitExceeded, CoefficientOverflow, ConfigError,
                     DomainError, IoError, MissingColumn, ParseError,
                     TriangleOptError, UnsupportedGeometry, ValidationError)
from .harness import (THEOREM_IDS, BoundCheck, Experiment, SeedResult,
                      check_bounds, load_experiment, run_experiment)
from .meta_strategies import (RestartPlan, holder_majorant_L, inner_iterations,
                              regularize, restart_run, restarts_for_target)
from .oracles import (CompositeObjective, EvalCounter, LinearImage, NoiseModel,
                      QuadraticForm, StochasticGradientOracle, TrialStreams,
                      finite_difference_gradient, grad, holder_probe,
                      minibatch_gradient, sample_gradient, substream, value)
from .prox_geometry import (EstimateFunction, FeasibleSet, NormPair, ProxSetup,
                            SimpleTerm, box, bregman_divergence,
                            composite_prox_solve, entropy_setup, estimate_value,
                            euclidean_ball, euclidean_setup, free_space,
                            initial_estimate, project_to_simplex, recenter,
                            simplex, soft_threshold, strong_convexity_probe)
from .solvers import (MODES, RunReport, SolverConfig, SolverState, StoppingRule,
                      alpha_next, batch_size, bregman_check, descent_check,
                      fold_estimate, gradient_mapping_residual, init_phase, run, step)
from .traces import CSV_COLUMNS, Trace, emit_trace, load_trace
from .zoo import (DESCRIPTIONS, ZOO_KINDS, ProblemSpec, ZooProblem,
                  make_problem, precompute_optimum)

__version__ = "0.1.0"

__all__ = [
    "BacktrackLimitExceeded", "BoundCheck", "CSV_COLUMNS", "CoefficientOverflow",
    "CompositeObjective", "ConfigError", "DESCRIPTIONS", "DomainError",
    "EstimateFunction", "EvalCounter", "Experiment", "FeasibleSet", "IoError",
    "LinearImage", "MODES", "MissingColumn", "NoiseModel", "NormPair", "ParseError",
    "ProblemSpec", "ProxSetup", "QuadraticForm", "RestartPlan", "RunReport",
    "SeedResult", "SimpleTerm", "SolverConfig", "SolverState",
    "StochasticGradientOracle", "StoppingRule", "THEOREM_IDS", "Trace", "TrialStreams",
    "TriangleOptError",
    "UnsupportedGeometry", "ValidationError", "ZOO_KINDS", "ZooProblem", "alpha_next",
    "batch_size", "box", "bregman_check", "bregman_divergence",
    "check_bounds", "composite_prox_solve", "descent_check", "emit_trace",
    "entropy_setup", "estimate_value", "euclidean_ball", "euclidean_setup",
    "finite_difference_gradient", "fold_estimate", "free_space", "grad",
    "gradient_mapping_residual", "holder_majorant_L", "holder_probe",
    "init_phase", "initial_estimate", "inner_iterations",
    "load_experiment", "load_trace", "make_problem", "minibatch_gradient",
    "precompute_optimum", "project_to_simplex", "recenter", "regularize",
    "restart_run", "restarts_for_target", "run", "run_experiment",
    "sample_gradient", "simplex", "soft_threshold", "step", "strong_convexity_probe",
    "substream", "value",
]
