"""Unit tests for the trace container and its CSV/JSON serialization."""

import json
import math

import numpy as np
import pytest

from triangle_opt import (
    CSV_COLUMNS,
    MissingColumn,
    ParseError,
    Trace,
    emit_trace,
    load_trace,
)


def sample_trace(n_rows=5, with_extras=False):
    trace = Trace()
    rng = np.random.default_rng(0)
    for k in range(n_rows):
        row = {
            "k": k, "A": float((k + 1) ** 2) / 4.0 + rng.random() * 1e-12,
            "alpha": rng.random() * 3.0, "L_trial": 2.0 ** float(rng.integers(-3, 3)),
            "j": int(rng.integers(0, 4)), "m": int(rng.integers(1, 50)),
            "cum_f": 2 * k + 1, "cum_grad": k + 1, "cum_stoch": 0,
            "gap": math.nan if k == 0 else rng.random() * 10.0 ** -float(rng.integers(0, 12)),
        }
        if with_extras:
            row["dist_u_sq"] = rng.random()
            row["cert_margin"] = rng.random()
        trace.append(**row)
    return trace


def test_append_requires_consistent_columns():
    trace = Trace()
    trace.append(k=0, A=1.0)
    with pytest.raises(ParseError):
        trace.append(k=1, alpha=2.0)
    with pytest.raises(MissingColumn):
        trace.column("gap")
    with pytest.raises(MissingColumn):
        Trace().last("k")


def test_csv_round_trip_is_exact(tmp_path):
    trace = sample_trace(8)
    path = str(tmp_path / "trace.csv")
    emit_trace(trace, "csv", path)
    back = load_trace(path)
    assert len(back) == 8
    for name in CSV_COLUMNS:
        a = trace.column(name).astype(float)
        b = back.column(name).astype(float)
        np.testing.assert_array_equal(np.nan_to_num(a, nan=-1), np.nan_to_num(b, nan=-1))


def test_json_round_trip_maps_nan_to_null(tmp_path):
    trace = sample_trace(4)
    path = str(tmp_path / "trace.json")
    emit_trace(trace, "json", path)
    text = open(path).read()
    assert "null" in text
    assert "nan" not in text.lower().replace("null", "")
    back = load_trace(path)
    assert math.isnan(back.column("gap")[0])
    np.testing.assert_array_equal(back.column("A"), trace.column("A"))


def test_extra_columns_never_reach_the_file(tmp_path):
    trace = sample_trace(3, with_extras=True)
    path = str(tmp_path / "trace.csv")
    emit_trace(trace, "csv", path)
    header = open(path).readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    back = load_trace(path)
    assert not back.has_column("dist_u_sq")
    assert not back.has_column("cert_margin")


def test_emit_rejects_missing_schema_column(tmp_path):
    trace = Trace()
    trace.append(k=0, A=1.0)
    with pytest.raises(MissingColumn):
        emit_trace(trace, "csv", str(tmp_path / "x.csv"))
    with pytest.raises(ParseError):
        emit_trace(sample_trace(1), "xml", str(tmp_path / "x.xml"))


def test_load_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("k,A,alpha\n0,1.0,1.0\n")
    with pytest.raises(ParseError):
        load_trace(str(bad_header))

    bad_cell = tmp_path / "cell.csv"
    rows = [",".join(CSV_COLUMNS), "0,1.0,oops,1.0,0,1,1,1,0,nan"]
    bad_cell.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError):
        load_trace(str(bad_cell))

    short_row = tmp_path / "short.csv"
    short_row.write_text(",".join(CSV_COLUMNS) + "\n0,1.0\n")
    with pytest.raises(ParseError):
        load_trace(str(short_row))

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        load_trace(str(empty))

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"k": 0}\n')
    with pytest.raises(ParseError):
        load_trace(str(bad_json))

    wrong_keys = tmp_path / "keys.json"
    wrong_keys.write_text('[{"k": 0, "A": 1.0}]\n')
    with pytest.raises(ParseError):
        load_trace(str(wrong_keys))


def _json_rows(**changes):
    row = {"k": 0, "A": 1.0, "alpha": 1.0, "L_trial": 1.0, "j": 0, "m": 1,
           "cum_f": 1, "cum_grad": 1, "cum_stoch": 0, "gap": None}
    row.update(changes)
    return [row]


@pytest.mark.parametrize("rows,where", [
    ([1, 2], "row 0"),
    (_json_rows() + ["row"], "row 1"),
    (_json_rows(j="x"), "'j'"),
    (_json_rows(k=1.0), "'k'"),
    (_json_rows(m=True), "'m'"),
    (_json_rows(cum_f=None), "'cum_f'"),
    (_json_rows(A="1.0"), "'A'"),
    (_json_rows(gap=False), "'gap'"),
    (_json_rows(alpha=[1.0]), "'alpha'"),
])
def test_load_json_rejects_badly_typed_rows(tmp_path, rows, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    with pytest.raises(ParseError, match=where):
        load_trace(str(path))


def test_load_json_accepts_integral_numbers_in_float_columns(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(_json_rows(A=4, gap=0)))
    back = load_trace(str(path))
    assert back.column("A")[0] == 4.0 and isinstance(back.data["A"][0], float)
    assert back.column("gap")[0] == 0.0
    assert isinstance(back.data["k"][0], int)


def test_seventeen_digit_floats_survive():
    value = 0.1 + 0.2  # not representable prettily; 17 digits must round-trip
    assert float(format(value, ".17g")) == value
    trace = Trace()
    trace.append(k=0, A=value, alpha=1e-300, L_trial=value * 1e150, j=0, m=1,
                 cum_f=1, cum_grad=1, cum_stoch=0, gap=value)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.csv")
        emit_trace(trace, "csv", path)
        back = load_trace(path)
    assert back.column("A")[0] == value
    assert back.column("alpha")[0] == 1e-300
    assert back.column("L_trial")[0] == value * 1e150
