"""Unit tests for the trace container and its CSV/JSON serialization."""

import json
import math
import re

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


@pytest.mark.parametrize("text, where", [
    ("{header}\n\n\n0,1,oops,1,0,1,1,1,0,nan\n", "line 4: bad value 'oops' for column 'alpha'"),
    ("\n{header}\n0,1,1,1,0,1,1,1,0,nan\n\n0,1\n", "line 5: expected 10 cells, got 2"),
    ("{header}\n0,1,1,1,0,1,1,1,0,nan\n0,1,1,1,0,x,1,1,0,nan\n",
     "line 3: bad value 'x' for column 'm'"),
], ids=["blank-lines-above", "blank-lines-around", "no-blank-lines"])
def test_load_csv_errors_name_the_line_in_the_file(tmp_path, text, where):
    # blank lines are skipped but still counted, so the number points at the bad line
    path = tmp_path / "blank.csv"
    path.write_text(text.format(header=",".join(CSV_COLUMNS)))
    with pytest.raises(ParseError, match=f"^{re.escape(where)}$"):
        load_trace(str(path))


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


@pytest.mark.parametrize("value", [2**63, 2**64, -2**63 - 1])
@pytest.mark.parametrize("name", ["k", "cum_stoch"])
def test_load_rejects_counts_outside_int64(tmp_path, name, value):
    # an int64 column never wraps or truncates: the reader names the cell instead
    cells = dict(zip(CSV_COLUMNS, "0,1.0,1.0,1.0,0,1,1,1,0,nan".split(",")), **{name: str(value)})
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(",".join(CSV_COLUMNS) + "\n0,1.0,1.0,1.0,0,1,1,1,0,nan\n"
                        + ",".join(cells[c] for c in CSV_COLUMNS) + "\n")
    with pytest.raises(ParseError, match=f"line 3: .*'{name}'"):
        load_trace(str(csv_path))
    json_path = tmp_path / "big.json"
    json_path.write_text(json.dumps(_json_rows() + _json_rows(**{name: value})))
    with pytest.raises(ParseError, match=f"row 1: .*'{name}'"):
        load_trace(str(json_path))


def test_load_accepts_the_int64_edges(tmp_path):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(_json_rows(k=2**63 - 1, cum_f=-2**63)))
    back = load_trace(str(path))
    assert back.column("k")[0] == 2**63 - 1 and back.column("cum_f")[0] == -2**63


@pytest.mark.parametrize("value", [1.5, 2**63, math.nan, math.inf, "3", None])
def test_integer_columns_hold_exact_int64_values_only(value):
    base = {"k": [0, 1], "A": [1.0, 2.0]}
    with pytest.raises(ParseError, match="'k'"):
        Trace(data={**base, "k": [0, value]})
    trace = Trace(data=base)
    with pytest.raises(ParseError, match="'k'"):
        trace.append(k=value, A=3.0)
    assert len(trace) == 2


def test_columns_are_typed_read_only_views():
    trace = Trace(data={"k": [0, 1.0, True], "A": [1, 2.5, 3]})
    assert trace.column("k").dtype == np.int64 and trace.column("A").dtype == np.float64
    assert trace.column("k").tolist() == [0, 1, 1] and trace.column("A").tolist() == [1.0, 2.5, 3.0]
    for n in range(3, 700):  # past several buffered blocks and two regrowths
        trace.append(A=n / 7, k=n)
        assert trace.last("k") == n and trace.last("A") == n / 7
    assert trace.column("k").tolist() == [0, 1, 1, *range(3, 700)]
    assert tuple(trace.data) == ("k", "A") and len(trace.data["A"]) == len(trace) == 700
    col = trace.column("A")
    with pytest.raises(ValueError):
        col[0] = 5.0
    trace.append(k=700, A=0.5)
    assert col.size == 700 and trace.column("A")[-1] == 0.5
    with pytest.raises(ParseError):
        Trace(data={"k": [0, 1], "A": [1.0]})


def test_append_rows_adds_typed_rows_in_order_with_append_row():
    trace = Trace()
    trace.append_rows({"k": (0, 1), "A": [1, 2.5], "gap": np.array([math.nan, 0.5])})
    assert tuple(trace.data) == ("k", "A", "gap")
    trace.append(k=2, A=3.0, gap=0.25)
    trace.append_rows({"gap": [0.125] * 300, "A": np.arange(300.0), "k": range(3, 303)})
    trace.append(gap=-1.0, A=-1.0, k=303)
    trace.append_rows({"k": [], "A": [], "gap": []})
    assert trace.column("k").dtype == np.int64 and trace.column("A").dtype == np.float64
    assert trace.column("k").tolist() == list(range(304))
    assert trace.column("A").tolist() == [1.0, 2.5, 3.0, *map(float, range(300)), -1.0]
    assert trace.column("gap")[1:3].tolist() == [0.5, 0.25] and trace.last("gap") == -1.0
    assert len(trace) == 304


@pytest.mark.parametrize("value", [2**63, -2**63 - 1, 1.5, math.nan, "3", None])
def test_append_rows_rejects_a_count_its_column_cannot_hold(value):
    trace = Trace(data={"k": [0], "A": [1.0]})
    with pytest.raises(ParseError, match="column 'k'"):
        trace.append_rows({"k": [1, value], "A": [2.0, 3.0]})
    trace.append_rows({"k": [1, 2**63 - 1], "A": [2.0, 3.0]})
    assert trace.column("k").tolist() == [0, 1, 2**63 - 1]


@pytest.mark.parametrize("columns", [
    {"k": [1]},
    {"k": [1], "A": [2.0], "gap": [0.0]},
    {"k": [1], "alpha": [2.0]},
])
def test_append_rows_rejects_another_column_set(columns):
    trace = Trace()
    trace.append(k=0, A=1.0)
    with pytest.raises(ParseError, match="consistent column set"):
        trace.append_rows(columns)
    with pytest.raises(ParseError, match="equal lengths"):
        trace.append_rows({"k": [1, 2], "A": [2.0]})
    with pytest.raises(ParseError, match="at least one column"):
        Trace().append_rows({})
    assert len(trace) == 1


def test_load_json_accepts_integral_numbers_in_float_columns(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(_json_rows(A=4, gap=0)))
    back = load_trace(str(path))
    assert back.column("A")[0] == 4.0 and isinstance(back.data["A"][0], float)
    assert back.column("gap")[0] == 0.0
    assert np.issubdtype(back.column("k").dtype, np.integer)


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


BIG = 2**63 - 1
PINNED_CSV = (
    "k,A,alpha,L_trial,j,m,cum_f,cum_grad,cum_stoch,gap\n"
    "0,-0,4.9406564584124654e-324,inf,0,1,9223372036854775807,0,9223372036854775807,nan\n"
    "1,0.30000000000000004,1.0000000000000001e+300,-inf,9223372036854775807,"
    "9223372036854775807,3,9223372036854775807,0,-0\n"
    "9223372036854775807,1.0000000000000001e+300,-4.9406564584124654e-324,"
    "0.30000000000000004,1,2,9223372036854775807,9223372036854775807,9223372036854775807,inf\n"
)
PINNED_JSON = (
    '[\n {\n  "k": 0,\n  "A": -0.0,\n  "alpha": 5e-324,\n  "L_trial": Infinity,\n'
    '  "j": 0,\n  "m": 1,\n  "cum_f": 9223372036854775807,\n  "cum_grad": 0,\n'
    '  "cum_stoch": 9223372036854775807,\n  "gap": null\n },\n'
    ' {\n  "k": 1,\n  "A": 0.30000000000000004,\n  "alpha": 1e+300,\n'
    '  "L_trial": -Infinity,\n  "j": 9223372036854775807,\n  "m": 9223372036854775807,\n'
    '  "cum_f": 3,\n  "cum_grad": 9223372036854775807,\n  "cum_stoch": 0,\n  "gap": -0.0\n },\n'
    ' {\n  "k": 9223372036854775807,\n  "A": 1e+300,\n  "alpha": -5e-324,\n'
    '  "L_trial": 0.30000000000000004,\n  "j": 1,\n  "m": 2,\n'
    '  "cum_f": 9223372036854775807,\n  "cum_grad": 9223372036854775807,\n'
    '  "cum_stoch": 9223372036854775807,\n  "gap": Infinity\n }\n]\n'
)


def pinned_trace():
    trace = Trace()
    trace.append(k=0, A=-0.0, alpha=5e-324, L_trial=math.inf, j=0, m=1,
                 cum_f=BIG, cum_grad=0, cum_stoch=BIG, gap=math.nan)
    trace.append(k=1, A=0.1 + 0.2, alpha=1e300, L_trial=-math.inf, j=BIG, m=BIG,
                 cum_f=3, cum_grad=BIG, cum_stoch=0, gap=-0.0)
    trace.append(k=BIG, A=1e300, alpha=-5e-324, L_trial=0.1 + 0.2, j=1, m=2,
                 cum_f=BIG, cum_grad=BIG, cum_stoch=BIG, gap=math.inf)
    return trace


@pytest.mark.parametrize("fmt,expected", [("csv", PINNED_CSV), ("json", PINNED_JSON)])
def test_writer_bytes_are_pinned(tmp_path, fmt, expected):
    # a round trip passes for any writer that reads back its own output; the
    # literal pins the bytes themselves: signed zero, subnormals, infinities,
    # nan, 17 significant digits and the int64 edge of the count columns
    path = emit_trace(pinned_trace(), fmt, str(tmp_path / f"pinned.{fmt}"))
    with open(path, newline="") as fh:
        assert fh.read() == expected
    back = load_trace(path)
    for name in CSV_COLUMNS:
        np.testing.assert_array_equal(back.column(name), pinned_trace().column(name))
