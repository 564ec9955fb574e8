"""Tests for experiment configuration parsing, batch running, and the
trace-vs-guarantee bound checker."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from triangle_opt import (THEOREM_IDS, CoefficientOverflow, ConfigError,
                          MissingColumn, NoiseModel, ParseError, ProblemSpec, SolverConfig,
                          StoppingRule, Trace, ValidationError, check_bounds, emit_trace,
                          init_phase, load_experiment, load_trace, make_problem, run,
                          run_experiment)
from triangle_opt import harness
from triangle_opt.harness import _seed_output_path


def _config_dict(**overrides):
    base = {
        "problem": {"kind": "quadratic", "dimension": 6, "seed": 2, "lam_min": 0.5},
        "solver": {"mode": "mst_exact_L", "L": 1.0},
        "seeds": [0],
        "max_iters": 40,
    }
    base.update(overrides)
    return base


def _load(**overrides):
    return load_experiment(json.dumps(_config_dict(**overrides)))


def test_load_experiment_valid_config():
    exp = _load(output="trace.csv", epsilon=1e-3)
    assert exp.problem.spec.kind == "quadratic"
    assert exp.problem.spec.dimension == 6
    assert exp.config.mode == "mst_exact_L"
    assert exp.config.L_known == 1.0
    assert exp.config.epsilon == 1e-3
    assert exp.config.max_iters == 40
    assert exp.seeds == [0]
    assert exp.output == "trace.csv"


def test_load_experiment_rejects_duplicate_keys():
    text = ('{"problem": {"kind": "quadratic"}, "solver": {"mode": "mst_exact_L", "L": 1},'
            ' "seeds": [0], "max_iters": 5, "max_iters": 6}')
    with pytest.raises(ParseError):
        load_experiment(text)


def test_load_experiment_rejects_malformed_json():
    with pytest.raises(ParseError):
        load_experiment("{not json")
    with pytest.raises(ValidationError):
        load_experiment("[1, 2, 3]")


def test_load_experiment_rejects_repeated_seeds():
    with pytest.raises(ValidationError, match="seed 0 more than once"):
        _load(seeds=[0, 0])
    with pytest.raises(ValidationError, match="seed -3 more than once"):
        _load(seeds=[1, -3, 2, -3, 1])
    assert _load(seeds=[2, 0, 1]).seeds == [2, 0, 1]


def test_load_experiment_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        _load(extra=1)
    with pytest.raises(ValidationError):
        _load(problem={"kind": "quadratic", "rows": 10})
    with pytest.raises(ValidationError):
        _load(prox={"modulus": 2.0})
    with pytest.raises(ValidationError):
        _load(solver={"mode": "mst_exact_L", "L": 1.0, "step": 0.1})
    with pytest.raises(ValidationError):
        _load(solver={"mode": "mst_exact_L", "L": 1.0,
                      "stopping": {"kind": "iterations_only", "limit": 3}})


@pytest.mark.parametrize("problem, message", [
    ({"kind": "quadratic", "p": 1.5}, "unknown options for quadratic: p"),
    ({"kind": "lasso", "rows": 10, "lam_min": 0.1}, "unknown options for lasso: lam_min, rows"),
    ({"kind": "logistic", "lam": 0.1}, "unknown options for logistic: lam"),
])
def test_load_experiment_names_an_option_the_kind_does_not_have(problem, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _load(problem=problem)


def test_load_experiment_rejects_missing_sections():
    for key in ("problem", "solver", "seeds", "max_iters"):
        cfg = _config_dict()
        del cfg[key]
        with pytest.raises(ValidationError):
            load_experiment(json.dumps(cfg))
    with pytest.raises(ValidationError):
        _load(problem={"dimension": 4})
    with pytest.raises(ValidationError):
        _load(solver={"L": 1.0})


def test_load_experiment_sumst_requires_D():
    with pytest.raises(ValidationError, match='requires "D"'):
        _load(solver={"mode": "sumst_stochastic_universal", "L0": 1.0}, epsilon=1e-2)


def test_load_experiment_validates_seeds_and_iters():
    with pytest.raises(ValidationError):
        _load(seeds=[])
    with pytest.raises(ValidationError):
        _load(seeds="0")
    with pytest.raises(ValidationError):
        _load(seeds=[0, True])
    with pytest.raises(ValidationError):
        _load(seeds=[0, 1.5])
    with pytest.raises(ValidationError, match='"seeds" must be an integer >= 0, got -1'):
        _load(seeds=[0, -1])
    with pytest.raises(ValidationError):
        _load(max_iters=0)
    with pytest.raises(ValidationError):
        _load(max_iters=True)
    with pytest.raises(ValidationError):
        _load(output=7)


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", 1.5), ("seed", "a"), ("seed", 1e30), ("seed", True),
    ("dimension", 2.5), ("dimension", "x"), ("dimension", True), ("dimension", 0),
])
def test_load_experiment_requires_an_integer_problem_seed_and_dimension(key, value):
    # the loader passes both keys to make_problem, whose ProblemSpec checks them
    problem = {"kind": "quadratic", "dimension": 6, "seed": 2, key: value}
    with pytest.raises(ValidationError, match=f"^{key} must be an integer >= "):
        _load(problem=problem)


def test_a_null_problem_dimension_is_the_default_and_a_null_seed_an_error():
    # null is passed on like every problem key: make_problem reads a None
    # dimension as the kind's default and has no default for a None seed
    exp = _load(problem={"kind": "quadratic", "dimension": None, "seed": 2})
    assert exp.problem.spec.dimension == ProblemSpec("quadratic").dimension
    with pytest.raises(ValidationError, match="^seed must be an integer >= 0, got None"):
        _load(problem={"kind": "quadratic", "dimension": 6, "seed": None})


def test_load_experiment_rejects_non_numeric_fields():
    with pytest.raises(ValidationError, match="solver.L"):
        _load(solver={"mode": "mst_exact_L", "L": "meta"})
    with pytest.raises(ValidationError, match="solver.L0"):
        _load(solver={"mode": "amst_adaptive", "L0": "auto"})
    with pytest.raises(ValidationError, match="solver.mu"):
        _load(solver={"mode": "mst_exact_L", "L": 1.0, "mu": True})
    with pytest.raises(ValidationError, match="solver.max_backtracks"):
        _load(solver={"mode": "mst_exact_L", "L": 1.0, "max_backtracks": 2.5})
    with pytest.raises(ValidationError, match="stopping.threshold"):
        _load(solver={"mode": "mst_exact_L", "L": 1.0,
                      "stopping": {"kind": "gradient_mapping", "threshold": "small"}})
    with pytest.raises(ValidationError, match="prox.omega_tilde"):
        _load(prox={"omega_tilde": [1.0]})
    with pytest.raises(ValidationError, match="omega_tilde must be >= 1"):
        _load(prox={"omega_tilde": 0.5})
    with pytest.raises(ValidationError, match="epsilon.*finite"):
        _load(epsilon=math.inf)


@pytest.mark.parametrize("solver", [
    {"mode": "amst_adaptive"},
    {"mode": "amst_adaptive", "L": None, "L0": None, "mu": None, "D": None,
     "max_backtracks": None, "stopping": None},
    {"mode": "amst_adaptive", "stopping": {"kind": None, "threshold": None, "r_sq": None}},
])
def test_load_experiment_absent_or_null_solver_keys_take_the_config_defaults(solver):
    exp = _load(solver=solver, epsilon=None)
    assert exp.config == SolverConfig(mode="amst_adaptive", max_iters=40)


def test_every_solver_config_field_has_a_json_key():
    keys = set(harness._SOLVER_FIELDS.values()) | {"mode", "epsilon", "max_iters", "stopping"}
    assert keys == {f.name for f in dataclasses.fields(SolverConfig)}


def test_load_experiment_maps_each_solver_key_onto_its_field():
    exp = _load(solver={"mode": "sumst_stochastic_universal", "L": 3, "L0": 0.5, "mu": 0.1,
                        "D": 2, "max_backtracks": 7,
                        "stopping": {"kind": "certified_gap", "r_sq": 4}},
                epsilon=0.01, max_iters=9)
    assert exp.config == SolverConfig(mode="sumst_stochastic_universal", L_known=3.0, L0=0.5,
                                      mu=0.1, epsilon=0.01, D=2.0, max_iters=9,
                                      max_backtracks_per_iter=7,
                                      stopping=StoppingRule(kind="certified_gap", r_sq=4.0))


@pytest.mark.parametrize("stopping, message", [
    ({"kind": "whenever"}, "unknown stopping rule 'whenever'"),
    ({"kind": []}, "unknown stopping rule \\[\\]"),
    ({"kind": "gradient_mapping"}, "gradient_mapping stopping needs a positive threshold"),
    ({"kind": "gradient_mapping", "threshold": 0}, "threshold must be > 0, got 0.0"),
    ({"kind": "certified_gap"}, "certified_gap stopping needs a positive r_sq"),
    ({"kind": "gradient_mapping", "threshold": math.nan}, '"stopping.threshold" must be finite'),
    ({"kind": "certified_gap", "r_sq": math.inf}, '"stopping.r_sq" must be finite'),
])
def test_load_experiment_bad_stopping_rules_are_validation_errors(stopping, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        _load(solver={"mode": "mst_exact_L", "L": 1.0, "stopping": stopping}, epsilon=0.1)


def test_load_experiment_wraps_solver_config_errors():
    with pytest.raises(ValidationError):
        _load(solver={"mode": "newton"})
    with pytest.raises(ValidationError):
        _load(solver={"mode": "mst_exact_L"})  # exact mode needs L
    with pytest.raises(ValidationError):
        _load(problem={"kind": "quadratic", "lam_min": -1.0})


def test_load_experiment_prox_override_reaches_setup_and_solver():
    exp = _load(prox={"omega_tilde": 2.0}, solver={"mode": "mst_exact_L", "L": 1.0, "mu": 0.5})
    assert exp.problem.setup.omega_tilde == 2.0
    state = init_phase(exp.problem.objective, exp.problem.setup, exp.config)
    assert state.mu_tilde == 0.25


def test_load_experiment_reads_null_sections_as_absent():
    # "prox": null is read like "output": null and "epsilon": null: as absent
    exp = _load(prox=None, output=None, epsilon=None)
    assert exp.problem.setup.omega_tilde == 1.0
    assert exp.output is None
    assert exp.config == _load().config
    with pytest.raises(ValidationError, match='"prox" must be an object'):
        _load(prox=[])


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_load_experiment_rejects_the_prox_omega_key(omega):
    # no solve, check or wrapper reads ProxSetup.omega, so the key is unknown
    with pytest.raises(ValidationError, match="unknown prox keys: omega"):
        _load(prox={"omega": omega})


def test_seed_output_path():
    assert _seed_output_path(None, 3, 5) is None
    assert _seed_output_path("runs/s{seed}.csv", 3, 5) == "runs/s3.csv"
    assert _seed_output_path("out.csv", 7, 1) == "out.csv"
    assert _seed_output_path("out.csv", 7, 2) == "out_seed7.csv"
    assert _seed_output_path("outfile", 7, 2) == "outfile_seed7"
    # the extension is the last file name's: a dotted directory or a leading dot is not one
    assert _seed_output_path("runs.d/trace", 0, 2) == "runs.d/trace_seed0"
    assert _seed_output_path(".hidden", 0, 2) == ".hidden_seed0"


def test_run_experiment_single_seed_writes_trace(tmp_path):
    out = tmp_path / "trace.csv"
    exp = _load(output=str(out))
    results = run_experiment(exp)
    assert len(results) == 1
    res = results[0]
    assert res.error is None
    assert res.seed == 0
    assert res.path == str(out)
    loaded = load_trace(str(out))
    assert len(loaded) == len(res.trace) == 40
    assert np.array_equal(loaded.column("k"), res.trace.column("k"))
    assert loaded.last("gap") == pytest.approx(res.trace.last("gap"), rel=1e-15)


def test_run_experiment_multi_seed_deterministic(tmp_path):
    cfg = {
        "problem": {"kind": "quadratic", "dimension": 5, "seed": 1},
        "solver": {"mode": "sumst_stochastic_universal", "L0": 1.0, "D": 0.5},
        "epsilon": 1e-2,
        "seeds": [0, 1],
        "max_iters": 10,
        "output": str(tmp_path / "s{seed}.json"),
    }
    first = run_experiment(load_experiment(json.dumps(cfg)))
    second = run_experiment(load_experiment(json.dumps(cfg)))
    assert [r.seed for r in first] == [0, 1]
    for a, b in zip(first, second):
        assert a.error is None and b.error is None
        assert np.array_equal(a.trace.column("gap"), b.trace.column("gap"))
        assert np.array_equal(a.trace.column("m"), b.trace.column("m"))
    # the two seeds draw different noise
    assert not np.array_equal(first[0].trace.column("gap")[1:],
                              first[1].trace.column("gap")[1:])
    for seed in (0, 1):
        loaded = load_trace(str(tmp_path / f"s{seed}.json"))
        assert len(loaded) == 10


def test_run_experiment_runs_the_seeds_in_order_one_at_a_time(monkeypatch):
    cfg = {
        "problem": {"kind": "quadratic", "dimension": 5, "seed": 1},
        "solver": {"mode": "sumst_stochastic_universal", "L0": 1.0, "D": 0.5},
        "epsilon": 1e-2,
        "seeds": [2, 0, 1],
        "max_iters": 12,
    }
    exp = load_experiment(json.dumps(cfg))
    in_flight = []
    most = []

    def counted_run(*args, **kwargs):
        in_flight.append(None)
        most.append(len(in_flight))
        try:
            return run(*args, **kwargs)
        finally:
            in_flight.pop()

    monkeypatch.setattr(harness, "run", counted_run)
    results = run_experiment(exp)
    assert [r.seed for r in results] == [2, 0, 1]
    assert most == [1, 1, 1]
    oracle = dataclasses.replace(exp.problem.objective, noise_model=NoiseModel(kind="gaussian"))
    for res in results:
        alone = run(oracle, exp.problem.setup, exp.config, rng=res.seed)
        assert res.error is None
        assert res.trace.data.keys() == alone.trace.data.keys()
        for name in alone.trace.data:
            got, want = res.trace.column(name), alone.trace.column(name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert res.report.final_x.tobytes() == alone.final_x.tobytes()
        assert ((res.report.iterations, res.report.total_f_calls,
                 res.report.total_grad_calls, res.report.total_stoch_calls)
                == (alone.iterations, alone.total_f_calls,
                    alone.total_grad_calls, alone.total_stoch_calls))


def test_run_experiment_records_per_seed_errors():
    exp = _load(solver={"mode": "amst_adaptive", "L0": 2.0 ** -12,
                        "max_backtracks": 3})
    results = run_experiment(exp)
    assert len(results) == 1
    assert results[0].trace is None
    assert results[0].report is None
    assert "BacktrackLimitExceeded" in results[0].error


def _mst_report(dimension=8, seed=2, iters=60, mu=0.0, lam_min=0.02):
    problem = make_problem("quadratic", dimension=dimension, seed=seed,
                           lam_min=lam_min)
    meta = problem.objective.smoothness_meta
    config = SolverConfig(mode="mst_exact_L", L_known=meta["L"], mu=mu,
                          max_iters=iters)
    return problem, run(problem.objective, problem.setup, config)


def test_check_bounds_t1_passes_on_real_run():
    problem, report = _mst_report()
    # prox center is the origin, so d(x*) = ||x*||^2 / 2 = 2
    check = check_bounds(report.trace, "t1",
                         {"L": problem.objective.smoothness_meta["L"], "R2": 2.0})
    assert check.passed
    assert check.worst_margin >= 0.0
    assert check.failing_k == []
    assert len(check.rows) == 60
    assert "pass" in check.summary()


def test_check_bounds_t1_catches_an_inflated_gap():
    problem, report = _mst_report()
    trace = report.trace
    gaps = list(trace.data["gap"])
    gaps[30] = 4.0 * 1.0 * 2.0 / 31.0 ** 2 * 1.5
    trace = Trace(data={**trace.data, "gap": gaps}, meta=trace.meta)
    check = check_bounds(trace, "t1", {"L": 1.0, "R2": 2.0})
    assert not check.passed
    assert 30 in check.failing_k
    assert check.worst_margin < 0.0
    assert "FAIL" in check.summary()
    assert "30" in check.summary()


def test_check_bounds_t2_t3_strongly_convex():
    problem, report = _mst_report(mu=0.5, lam_min=0.5, iters=120)
    check = check_bounds(report.trace, "t2_t3",
                         {"L": 1.0, "R2": 2.0, "mu": 0.5})
    assert check.passed
    # the exponential branch is the binding one late in the run
    late = check.rows[-1]
    assert late["bound"] == pytest.approx(
        2.0 * math.exp(-0.5 * math.sqrt(0.5) * late["k"]), rel=1e-12)


def test_check_bounds_c1_and_c2_on_in_memory_trace():
    problem, report = _mst_report(iters=50)
    c1 = check_bounds(report.trace, "c1", {"R2": 2.0})
    assert c1.passed and len(c1.rows) == 50
    c2 = check_bounds(report.trace, "c2", {"L": 1.0, "R2": 2.0})
    assert c2.passed
    # row k = 0 is excluded from the 1/k^2 bound
    assert c2.rows[0]["k"] == 1


def test_check_bounds_c1_needs_distance_columns(tmp_path):
    problem, report = _mst_report(iters=10)
    path = str(tmp_path / "t.csv")
    from triangle_opt import emit_trace
    emit_trace(report.trace, "csv", path)
    loaded = load_trace(path)
    # the serialized schema drops the distance diagnostics
    with pytest.raises(MissingColumn):
        check_bounds(loaded, "c1", {"R2": 2.0, "x0_y0_sq": 0.0})
    # and serialization also drops the meta scalars the check can fall back on
    with pytest.raises(ConfigError):
        check_bounds(loaded, "c1", {"R2": 2.0})


def test_check_bounds_t6_work():
    problem = make_problem("quadratic", dimension=8, seed=2)
    config = SolverConfig(mode="amst_adaptive", L0=1.0 / 32.0, max_iters=80)
    report = run(problem.objective, problem.setup, config)
    check = check_bounds(report.trace, "t6_work", {"L": 1.0})
    assert check.passed


def test_check_bounds_t9_scaling():
    points = [(1e-1, 122), (1e-2, 766), (1e-3, 4847), (1e-4, 30559)]
    check = check_bounds(None, "t9_scaling", {"nu": 0.5, "points": points})
    assert check.passed
    assert check.rows[0]["measured"] == pytest.approx(0.800, abs=5e-3)
    with pytest.raises(ConfigError):
        check_bounds(None, "t9_scaling", {"nu": 0.5, "points": points[:1]})
    with pytest.raises(ConfigError):
        check_bounds(None, "t9_scaling", {"points": points})


@pytest.mark.parametrize("points", [[(1, 1), (1, 1)], [(1e-2, 10), (1e-2, 20)],
                                    [(1e-2, 10), (1e-2, 20), (1e-2, 40)]])
def test_check_bounds_t9_scaling_needs_two_distinct_epsilons(points):
    # one epsilon value leaves the slope undetermined: numpy's fit would
    # raise LinAlgError or grade a rank-deficient fit
    with pytest.raises(ConfigError, match="two distinct epsilon"):
        check_bounds(None, "t9_scaling", {"nu": 0.5, "points": points})


def test_check_bounds_t10_calls():
    trace = Trace()
    for k in range(6):
        trace.append(k=k, A=float(k), alpha=1.0, L_trial=1.0, j=0, m=4,
                     cum_f=2 * k, cum_grad=k, cum_stoch=4 * k, gap=1.0 / (k + 1))
    check = check_bounds(trace, "t10_calls", {"D": 1.0, "R2": 0.5, "epsilon": 0.1})
    assert check.passed
    assert check.rows[0]["k"] == 5
    assert check.rows[0]["bound"] == pytest.approx(4.0 * (4.0 * 1.0 * 0.5 / 0.01 + 10.0))
    greedy = Trace()
    for k in range(6):
        greedy.append(k=k, A=float(k), alpha=1.0, L_trial=1.0, j=0, m=100,
                      cum_f=2 * k, cum_grad=k, cum_stoch=100 * k, gap=1.0 / (k + 1))
    tight = check_bounds(greedy, "t10_calls", {"D": 1.0, "R2": 0.5, "epsilon": 10.0})
    assert not tight.passed


def test_check_bounds_t5_halving_params_beat_meta():
    trace = Trace()
    trace.meta["mu"] = 1.0
    trace.meta["y0_dist_sq"] = 8.0
    for k in range(4):
        trace.append(k=k, A=1.0, alpha=1.0, L_trial=1.0, j=0, m=1,
                     cum_f=k, cum_grad=k, cum_stoch=0, gap=0.5 * 8.0 / 2.0 ** (k + 1))
    via_meta = check_bounds(trace, "t5_halving", {})
    assert via_meta.passed
    assert via_meta.rows[0]["bound"] == pytest.approx(4.0)
    via_params = check_bounds(trace, "t5_halving", {"mu": 0.5, "y0_dist_sq": 8.0})
    assert via_params.rows[0]["bound"] == pytest.approx(2.0)
    trace.meta.clear()
    with pytest.raises(ConfigError):
        check_bounds(trace, "t5_halving", {"mu": 0.5})


def test_check_bounds_rejects_bad_requests():
    problem, report = _mst_report(iters=5)
    with pytest.raises(ConfigError):
        check_bounds(report.trace, "t99", {})
    with pytest.raises(ConfigError):
        check_bounds(None, "t1", {"L": 1.0, "R2": 1.0})
    with pytest.raises(ConfigError):
        check_bounds(report.trace, "t1", {"R2": 1.0})
    assert set(THEOREM_IDS) == {"t1", "t2_t3", "c1", "c2", "t6_work",
                                "t9_scaling", "t10_calls", "t5_halving"}


def test_check_bounds_vacuous_on_a_truncated_trace():
    trace = Trace()
    trace.append(k=0, A=1.0, alpha=1.0, L_trial=1.0, j=0, m=1,
                 cum_f=1, cum_grad=1, cum_stoch=0, gap=5.0)
    check = check_bounds(trace, "c2", {"L": 1.0, "R2": 1.0, "x0_y0_sq": 0.0})
    assert check.passed
    assert check.rows == []
    assert check.worst_margin == math.inf


# the theorems that need only the serialized schema columns, with parameters
_SCHEMA_ONLY = {"t1": {"L": 1.0, "R2": 1.0}, "t2_t3": {"L": 1.0, "R2": 1.0, "mu": 0.1},
                "c2": {"L": 1.0, "R2": 1.0, "x0_y0_sq": 0.0}, "t6_work": {"L": 1.0},
                "t10_calls": {"D": 1.0, "R2": 1.0, "epsilon": 0.1},
                "t5_halving": {"mu": 1.0, "y0_dist_sq": 1.0}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_empty_trace_round_trip_passes_every_schema_only_theorem(tmp_path, fmt):
    path = str(tmp_path / f"empty.{fmt}")
    emit_trace(Trace(), fmt, path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    for theorem_id, params in _SCHEMA_ONLY.items():
        check = check_bounds(loaded, theorem_id, params)
        assert check.passed and check.rows == [], theorem_id


@pytest.mark.parametrize("theorem_id,params,bad", [
    ("t2_t3", {"L": 0.0, "R2": 1.0, "mu": 0.1}, "L"),
    ("t1", {"L": math.nan, "R2": 1.0}, "L"),
    ("t1", {"L": 1.0, "R2": -1.0}, "R2"),
    ("t2_t3", {"L": 1.0, "R2": 1.0, "mu": math.inf}, "mu"),
    ("t2_t3", {"L": 1.0, "R2": 1.0, "mu": 0.1, "omega_tilde": 0.0}, "omega_tilde"),
    ("c2", {"L": 1.0, "R2": 1.0, "x0_y0_sq": -math.inf}, "x0_y0_sq"),
    ("t6_work", {"L": -1.0}, "L"),
    ("t10_calls", {"D": 0.0, "R2": 1.0, "epsilon": 0.1}, "D"),
    ("t10_calls", {"D": 1.0, "R2": 1.0, "epsilon": -0.1}, "epsilon"),
    ("t5_halving", {"mu": math.nan, "y0_dist_sq": 1.0}, "mu"),
    ("t9_scaling", {"nu": -0.5, "points": [(0.1, 10), (0.01, 100)]}, "nu"),
    ("t1", {"L": "abc", "R2": 1.0}, "L"),
    ("t1", {"L": [1.0], "R2": 1.0}, "L"),
    ("t1", {"L": "1.5", "R2": 1.0}, "L"),
    ("t1", {"L": True, "R2": 1.0}, "L"),
    ("t1", {"L": 1.0, "R2": 1.0, "tol": "x"}, "tol"),
    ("t1", {"L": 1.0, "R2": 1.0, "tol": math.nan}, "tol"),
    ("t1", {"L": 1.0, "R2": 1.0, "tol": math.inf}, "tol"),
    ("t1", {"L": 1.0, "R2": 1.0, "tol": -1.0}, "tol"),
    ("t9_scaling", {"nu": 0.5, "points": "ab"}, "points"),
    ("t9_scaling", {"nu": 0.5, "points": [(0.1,), (0.01, 3)]}, "points"),
])
def test_check_bounds_rejects_out_of_range_parameters(theorem_id, params, bad):
    _, report = _mst_report(iters=5)
    with pytest.raises(ConfigError, match=f"'{bad}'"):
        check_bounds(report.trace, theorem_id, params)


def test_check_bounds_checks_meta_parameters_and_accepts_zero_where_allowed():
    _, report = _mst_report(iters=5)
    assert check_bounds(report.trace, "t2_t3", {"L": 1.0, "R2": 0.0, "mu": 0.0}).rows
    report.trace.meta["x0_y0_sq"] = math.nan
    with pytest.raises(ConfigError, match="'x0_y0_sq'"):
        check_bounds(report.trace, "c1", {"R2": 1.0})
    with pytest.raises(ConfigError, match="points"):
        check_bounds(None, "t9_scaling", {"nu": 0.5, "points": [(0.0, 10), (0.01, 100)]})


def _accepted(name, param):
    """A value the theorem table's check for a parameter accepts."""
    for value in (1.0, [(0.1, 10), (0.01, 100)]):
        try:
            param.check(name, value)
            return value
        except ConfigError:
            pass
    raise AssertionError(f"no accepted test value for {name!r}")


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_every_parameter_a_theorem_reads_is_required_and_range_checked(theorem_id):
    # driven by the theorem table, so a new row or parameter needs no new test
    theorem = harness._THEOREMS[theorem_id]
    good = {name: _accepted(name, param) for name, param in theorem.params.items()}
    trace = Trace()  # no meta: every parameter comes from the caller or its default
    assert set(harness._gather_params(theorem, trace, good)) == {"tol", *theorem.params}
    for name in (*theorem.params, "tol"):
        if name != "tol" and theorem.params[name].default is None:
            missing = {key: value for key, value in good.items() if key != name}
            with pytest.raises(ConfigError, match=f"'{name}'"):
                check_bounds(trace, theorem_id, missing)
        for bad in (-1.0, math.nan, math.inf, True, "ab"):
            with pytest.raises(ConfigError, match=f"'{name}'"):
                check_bounds(trace, theorem_id, {**good, name: bad})


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_a_key_the_theorem_does_not_read_is_refused_not_dropped(theorem_id):
    # no theorem reads "omega": t2_t3 given it for "omega_tilde" was graded at 1.0
    theorem = harness._THEOREMS[theorem_id]
    good = {name: _accepted(name, param) for name, param in theorem.params.items()}
    reads = ", ".join([*theorem.params, "tol"])
    with pytest.raises(ConfigError, match=f"does not read 'omega'; it reads {reads}$"):
        check_bounds(Trace(), theorem_id, {**good, "omega": 4.0})
    assert harness._gather_params(theorem, Trace(), {**good, "tol": 0.0})["tol"] == 0.0


def test_check_bounds_rows_show_the_constraint_that_sets_their_margin():
    problem = make_problem("quadratic", dimension=20, seed=0)
    report = run(problem.objective, problem.setup,
                 SolverConfig(mode="amst_adaptive", max_iters=200))
    c1 = check_bounds(report.trace, "c1", {"R2": 0.3, "x0_y0_sq": 5.0})
    assert len(c1.rows) == 200 and c1.failing_k == [0]
    # row 0 fails dist_u_sq <= 2*R2 = 0.6, not the distance bound 4*R2 + 2*x0_y0_sq
    assert c1.rows[0]["bound"] == 0.6 and c1.rows[0]["measured"] > 0.6
    for row in c1.rows:
        assert row["margin"] == row["bound"] + 1e-8 - row["measured"]
    trace = Trace()
    for k, cum_grad in ((0, 1), (1, 9)):
        trace.append(k=k, A=1.0, alpha=1.0, L_trial=1.0, j=0, m=1, cum_f=k + 1,
                     cum_grad=cum_grad, cum_stoch=0, gap=1.0)
    # L00 = 1 and L = 1: cum_f(1) = 2 <= 9 holds, cum_grad(1) = 9 <= 5 fails
    t6 = check_bounds(trace, "t6_work", {"L": 1.0})
    assert t6.rows[1] == {"k": 1, "measured": 9.0, "bound": 5.0, "margin": -4.0, "ok": False}


def test_check_bounds_docstring_names_the_parameters_the_table_gives_each_theorem():
    ids = "|".join(THEOREM_IDS)
    entries = dict(re.findall(rf"^    ({ids}) (.*?)(?=^    (?:{ids}) |^$)", check_bounds.__doc__,
                              re.M | re.S))
    assert entries.keys() == set(THEOREM_IDS)
    every_name = {name for theorem in harness._THEOREMS.values() for name in theorem.params}
    for theorem_id, theorem in harness._THEOREMS.items():
        entry = entries[theorem_id]
        assert set(re.findall(r"\w+", entry)) & every_name == set(theorem.params), theorem_id
        assert ("or meta" in entry) == any(p.meta for p in theorem.params.values()), theorem_id
        for param in theorem.params.values():
            if param.default is not None:
                assert f"default {param.default}" in entry, theorem_id


def test_run_failure_after_the_first_row_keeps_its_partial_report():
    # lasso mst with mu > 0: A_k grows geometrically and passes the 1e300
    # guard at k = 1821, long after the run converged
    lasso = make_problem("lasso")
    meta = lasso.objective.smoothness_meta
    config = SolverConfig(mode="mst_exact_L", L_known=meta["L"], mu=meta["mu"],
                          max_iters=2000)
    with pytest.raises(CoefficientOverflow, match="k=1821") as info:
        run(lasso.objective, lasso.setup, config)
    report = info.value.report
    assert len(report.trace) == 1821 and report.iterations == 1820
    assert list(report.trace.column("k")) == list(range(1821))
    # the totals include the one f call of the step whose A_k overflowed
    assert report.total_f_calls == int(report.trace.last("cum_f")) + 1
    assert report.trace.last("gap") <= 1e-10
    # amst on the entropy simplex: the trial constant halves every step once
    # converged, so A_k doubles and overflows at k = 995
    simplex = make_problem("simplex_linear")
    with pytest.raises(CoefficientOverflow, match="k=995") as info:
        run(simplex.objective, simplex.setup,
            SolverConfig(mode="amst_adaptive", max_iters=1200))
    report = info.value.report
    assert len(report.trace) == 995 and report.iterations == 994
    assert report.trace.last("gap") <= 1e-12


def test_run_experiment_keeps_the_partial_trace_of_a_failed_seed(tmp_path):
    out = str(tmp_path / "trace_{seed}.json")
    exp = load_experiment(json.dumps({
        "problem": {"kind": "simplex_linear"}, "solver": {"mode": "amst_adaptive"},
        "seeds": [0, 1], "max_iters": 1200, "output": out}))
    results = run_experiment(exp)
    for res in results:
        assert "CoefficientOverflow" in res.error
        assert len(res.trace) == 995 and res.report.trace is res.trace
        assert res.path == out.replace("{seed}", str(res.seed))
        assert len(load_trace(res.path)) == 995
