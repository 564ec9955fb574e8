"""Property tests over random (zoo kind, dimension, seed, mode) draws: the
certificate margin holds on every row, the counters equal the trace
cumulatives, and on the kinds with a linear image every accepted trial
constant stays within twice the true L.  Over random traces: an emit -> load
round trip gives every schema column back bit for bit, in CSV and in JSON.
Skipped when hypothesis is missing."""

import math
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from triangle_opt import (CSV_COLUMNS, NoiseModel, SolverConfig, Trace,  # noqa: E402
                          emit_trace, load_trace, make_problem, run)

INT_COLUMNS = ("k", "j", "m", "cum_f", "cum_grad", "cum_stoch")

MAX_DIMENSION = {"quadratic": 30, "lasso": 15, "logistic": 10,
                 "holder_norm_power": 6, "simplex_linear": 6}
MODES = ("mst", "amst", "amst+eps", "umst", "sumst")


def _solve(kind, dimension, seed, mode, octaves):
    problem = make_problem(kind, dimension=dimension, seed=seed)
    objective = problem.objective
    meta = objective.smoothness_meta
    # start below 2L, so that every accepted constant, row 0 included, is
    # held to 2L; the Holder kind has no L and starts at 1
    L0 = meta["L"] / 2.0 ** octaves if "L" in meta else 1.0
    if mode == "mst":
        config = SolverConfig(mode="mst_exact_L", L_known=meta["L"], max_iters=120)
    elif mode == "amst":
        config = SolverConfig(mode="amst_adaptive", L0=L0, max_iters=120)
    elif mode == "amst+eps":
        config = SolverConfig(mode="amst_adaptive", L0=L0, epsilon=1e-4, max_iters=120)
    elif mode == "umst":
        config = SolverConfig(mode="umst_universal", L0=L0, epsilon=1e-4, max_iters=120)
    else:
        config = SolverConfig(mode="sumst_stochastic_universal", L0=L0, epsilon=1e-2,
                              D=0.1, max_iters=40)
        objective = replace(objective, noise_model=NoiseModel(kind="gaussian"))
    return problem, run(objective, problem.setup, config, rng=seed)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(MAX_DIMENSION)))
    dimension = draw(st.integers(2, MAX_DIMENSION[kind]))
    modes = MODES if kind != "holder_norm_power" else MODES[1:]
    return (kind, dimension, draw(st.integers(0, 10_000)), draw(st.sampled_from(modes)),
            draw(st.integers(0, 6)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cases())
def test_runs_keep_their_certificate_counts_and_trial_constants(case):
    kind, dimension, seed, mode, octaves = case
    problem, report = _solve(kind, dimension, seed, mode, octaves)
    trace = report.trace
    margins = trace.column("cert_margin")
    assert np.all(margins >= -1e-8 * np.maximum(1.0, np.abs(trace.column("A"))))
    assert report.total_f_calls == int(trace.last("cum_f"))
    assert report.total_grad_calls == int(trace.last("cum_grad"))
    assert report.total_stoch_calls == int(trace.last("cum_stoch"))
    if problem.objective.linear is not None and mode != "sumst":
        assert np.all(trace.column("L_trial") <= 2.0 * problem.objective.smoothness_meta["L"])


# -0.0, subnormals and +-inf come from st.floats; nan only as the one nan a
# load can give back (written "nan" in CSV, null in JSON)
cell_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=True,
                                  allow_subnormal=True), st.just(math.nan))
cell_ints = st.integers(0, 2**63 - 1)


@st.composite
def traces(draw):
    rows = draw(st.integers(0, 12))
    return {name: draw(st.lists(cell_ints if name in INT_COLUMNS else cell_floats,
                                min_size=rows, max_size=rows))
            for name in CSV_COLUMNS}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(traces(), st.sampled_from(("csv", "json")))
def test_trace_round_trip_keeps_every_schema_column_bit_for_bit(columns, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = emit_trace(Trace(data=columns), fmt, os.path.join(tmp, f"trace.{fmt}"))
        loaded = load_trace(path)
    assert tuple(loaded.data) == CSV_COLUMNS
    for name in CSV_COLUMNS:
        dtype = np.int64 if name in INT_COLUMNS else np.float64
        expected = np.asarray(columns[name], dtype=dtype)
        got = np.asarray(loaded.data[name])
        if got.size:
            assert got.dtype == dtype, name
        assert got.astype(dtype).tobytes() == expected.tobytes(), name
