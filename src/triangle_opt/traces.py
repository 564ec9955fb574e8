"""Per-iteration run traces and their CSV/JSON serialization.

The serialized schema is fixed: columns k,A,alpha,L_trial,j,m,cum_f,cum_grad,
cum_stoch,gap with a mandatory header, '.' decimal separator, '\\n' newlines,
and floats printed to 17 significant digits so a round trip is exact.  An
in-memory trace may carry extra columns (squared distances to the optimum,
certificate margins) that bound checks consume; those never reach the files.

In memory every column is a numpy array, 8 bytes a cell: int64 for the
schema's count columns k, j, m, cum_f, cum_grad and cum_stoch, float64 for
every other column.  An integer cell that is not integral or lies outside
int64 raises ParseError; it is never truncated or wrapped.  Appended rows,
one (``append``) or many given as columns (``append_rows``), go into the
column arrays with one slice per column.  The arrays grow geometrically, so
``column``, ``last`` and ``len`` are O(1) reads of the filled part.  CSV and JSON are
written and read one column at a time as well.
"""

from __future__ import annotations

import json
from operator import itemgetter

import numpy as np

from .errors import IoError, MissingColumn, ParseError

CSV_COLUMNS = ("k", "A", "alpha", "L_trial", "j", "m",
               "cum_f", "cum_grad", "cum_stoch", "gap")
_INT_COLUMNS = frozenset(("k", "j", "m", "cum_f", "cum_grad", "cum_stoch"))
_SCHEMA = frozenset(CSV_COLUMNS)
_INT64 = np.iinfo(np.int64)


def _dtype(name: str) -> np.dtype:
    return np.dtype(np.int64 if name in _INT_COLUMNS else np.float64)


def _cell(name: str, value):
    """value as an exact int (integer columns) or float; ParseError if the
    column's type cannot hold it exactly."""
    dtype = _dtype(name)
    try:
        with np.errstate(invalid="ignore"):  # no warning: the check below rejects it
            cell = np.array(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        cell = None
    # the int64 cast truncates 1.5, parses "3" and turns 1e19 into -2**63:
    # only an exact integer compares equal
    if cell is None or cell.ndim or (dtype.kind == "i" and cell.item() != value):
        kind = "integers in the int64 range" if dtype.kind == "i" else "numbers"
        raise ParseError(f"column {name!r} takes {kind}, got {value!r}")
    return cell.item()


def _typed(name: str, values) -> np.ndarray:
    """A new int64 or float64 array of the values of column name; ParseError,
    naming the column, for a value the column's type cannot hold exactly."""
    dtype = _dtype(name)
    if isinstance(values, np.ndarray) and values.dtype == dtype and values.ndim == 1:
        return values.copy()
    try:
        with np.errstate(invalid="ignore"):  # no warning: the check below rejects it
            col = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        col = None
    # the int64 cast truncates 1.5, parses "3" and turns 1e19 into -2**63:
    # only exact integers compare equal
    if col is not None and col.ndim == 1 and (dtype.kind == "f" or col.tolist() == list(values)):
        return col
    return np.array([_cell(name, value) for value in values], dtype=dtype)


class Trace:
    """Columnar evidence rows; extra columns allowed beyond the CSV schema.

    ``Trace(data={name: sequence}, meta={...})`` starts from whole columns of
    equal length; ``append`` adds one row carrying the same
    column set as the first, and ``append_rows`` adds many rows given as
    columns.  ``meta`` holds run-level scalars that are not serialized.
    """

    def __init__(self, data: dict | None = None, meta: dict | None = None):
        self.meta = {} if meta is None else meta
        self._cols = {}      # name -> array; the first self._n cells are the stored rows
        self._n = 0
        if data:
            cols = {name: _typed(name, values) for name, values in data.items()}
            lengths = {col.size for col in cols.values()}
            if len(lengths) != 1:
                raise ParseError("trace columns must have equal lengths")
            self._cols = cols
            self._n = lengths.pop()

    def __len__(self) -> int:
        return self._n

    def append(self, **fields) -> None:
        """Add one row, given as column=value."""
        self.append_rows({name: (value,) for name, value in fields.items()})

    def append_rows(self, columns: dict) -> None:
        """append for many rows at once, given as {column: sequence of its
        cells}: the same column set as every row, sequences of equal length,
        each cell typed as append types it.  The rows follow every row
        appended before them."""
        if not self._cols:  # the first rows name the columns
            if not columns:
                raise ParseError("a trace row needs at least one column")
            self._cols = {name: np.empty(0, _dtype(name)) for name in columns}
        if columns.keys() != self._cols.keys():
            raise ParseError("trace rows must carry a consistent column set")
        typed = [(name, _typed(name, values)) for name, values in columns.items()]
        lengths = {col.size for _, col in typed}
        if len(lengths) != 1:
            raise ParseError("trace columns must have equal lengths")
        self._store(typed, lengths.pop())

    def _store(self, columns: list, count: int) -> None:
        """Store count rows, given as (name, cells) per column, after the stored ones."""
        n = self._n
        end = n + count
        cols = self._cols
        for name, cells in columns:
            col = cols[name]
            if end > col.size:
                # a quarter more: at most a fifth of the cells idle, about 4 copies a cell
                grown = np.empty(max(end, col.size + col.size // 4), col.dtype)
                grown[:n] = col[:n]
                cols[name] = col = grown
            col[n:end] = cells
        self._n = end

    @property
    def data(self) -> dict:
        """{name: read-only array} of every column, each exactly len(self) long."""
        return {name: self.column(name) for name in self._cols}

    def has_column(self, name: str) -> bool:
        return name in self._cols

    def column(self, name: str) -> np.ndarray:
        """A read-only view of the column's cells."""
        if name not in self._cols:
            raise MissingColumn(f"trace has no column {name!r}")
        view = self._cols[name][:self._n]
        view.flags.writeable = False
        return view

    def last(self, name: str):
        col = self.column(name)
        if col.size == 0:
            raise MissingColumn(f"trace column {name!r} is empty")
        return col[-1]


def _csv_cells(name: str, col: np.ndarray) -> list:
    if name in _INT_COLUMNS:
        return list(map(str, col.tolist()))
    return list(map("%.17g".__mod__, col.tolist()))  # nan prints as 'nan' whatever its sign


_JSON_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cells(name: str, col: np.ndarray) -> list:
    """The text json.dump gives each cell, with nan written as null."""
    if name in _INT_COLUMNS:
        return list(map(int.__repr__, col.tolist()))
    cells = list(map(float.__repr__, col.tolist()))
    for i in np.flatnonzero(~np.isfinite(col)).tolist():
        cells[i] = _JSON_NON_FINITE[cells[i]]
    return cells


# one row as json.dump(rows, indent=1) lays it out
_JSON_ROW = " {\n" + ",\n".join(f"  {json.dumps(name)}: %s" for name in CSV_COLUMNS) + "\n }"


def emit_trace(trace: Trace, fmt: str, path: str) -> str:
    """Write the schema columns of a trace as CSV or JSON; returns the path."""
    if fmt not in ("csv", "json"):
        raise ParseError(f"unknown trace format {fmt!r}")
    for name in CSV_COLUMNS:
        if len(trace) and not trace.has_column(name):
            raise MissingColumn(f"cannot emit trace without column {name!r}")
    cells = _csv_cells if fmt == "csv" else _json_cells
    rows = zip(*(cells(name, trace.column(name)) for name in CSV_COLUMNS)) if len(trace) else ()
    if fmt == "csv":
        text = "\n".join([",".join(CSV_COLUMNS), *map(",".join, rows)]) + "\n"
    elif len(trace):
        text = "[\n" + ",\n".join(map(_JSON_ROW.__mod__, rows)) + "\n]\n"
    else:
        text = "[]\n"
    try:
        with open(path, "w", newline="" if fmt == "csv" else None) as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write trace to {path}: {exc}") from exc
    return path


def _int64_cell(value: int, where: str, name: str) -> int:
    if not _INT64.min <= value <= _INT64.max:
        raise ParseError(f"{where}: value {value!r} for column {name!r} is outside int64")
    return value


def _parse_cell(name: str, text: str, lineno: int):
    try:
        if name in _INT_COLUMNS:
            return _int64_cell(int(text), f"line {lineno}", name)
        return float(text)  # accepts 'nan'
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad value {text!r} for column {name!r}") from exc


def _json_cell(name: str, value, index: int):
    """A JSON cell: integer columns take JSON integers, float columns numbers or null."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if name in _INT_COLUMNS and isinstance(value, int) and is_number:
        return _int64_cell(value, f"row {index}", name)
    if name not in _INT_COLUMNS and (value is None or is_number):
        try:
            return np.nan if value is None else float(value)
        except OverflowError:
            pass
    raise ParseError(f"row {index}: bad value {value!r} for column {name!r}")


# the Python types json.loads gives the cells each column takes
_JSON_TYPES = {name: {int} if name in _INT_COLUMNS else {int, float, type(None)}
               for name in CSV_COLUMNS}


def _json_columns(rows: list) -> list:
    """The schema columns of JSON rows, each read in one pass.  When a row or
    a cell is bad, the rows are checked again one cell at a time, so the error
    names the first bad one in file order."""
    if not set(map(type, rows)) - {dict} and all(row.keys() == _SCHEMA for row in rows):
        columns = {name: list(map(itemgetter(name), rows)) for name in CSV_COLUMNS}
        if all(set(map(type, values)) <= _JSON_TYPES[name] for name, values in columns.items()):
            try:  # None reads as nan
                return [np.array(values, dtype=_dtype(name)) for name, values in columns.items()]
            except OverflowError:
                pass
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ParseError(f"row {index}: JSON trace row {row!r} is not an object")
        if set(row) != _SCHEMA:
            raise ParseError(f"row {index}: JSON trace row keys {sorted(row)} "
                             "do not match the schema")
        for name in CSV_COLUMNS:
            _json_cell(name, row[name], index)
    raise ParseError("bad JSON trace")  # not reached: the loop names the bad cell


def _csv_columns(rows: list, linenos: list) -> list:
    """The columns of split CSV lines, each parsed in one pass.  When a line
    or a cell is bad, the lines are parsed again one cell at a time, so the
    error names the first bad one in file order, by its line in the file."""
    if not set(map(len, rows)) - {len(CSV_COLUMNS)}:
        try:
            return [np.array(list(map(int if name in _INT_COLUMNS else float, cells)),
                             dtype=_dtype(name))
                    for name, cells in zip(CSV_COLUMNS, zip(*rows))]
        except (ValueError, OverflowError):
            pass
    for lineno, cells in zip(linenos, rows):
        if len(cells) != len(CSV_COLUMNS):
            raise ParseError(f"line {lineno}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        for name, cell in zip(CSV_COLUMNS, cells):
            _parse_cell(name, cell, lineno)
    raise ParseError("bad CSV trace")  # not reached: the loop names the bad cell


def load_trace(path: str) -> Trace:
    """Read a trace file written by emit_trace (format inferred from extension)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read trace from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"trace {path} is not UTF-8 text: {exc}") from exc
    if str(path).endswith(".json"):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON trace: {exc}") from exc
        if not isinstance(rows, list):
            raise ParseError("JSON trace must be an array of row objects")
        columns = _json_columns(rows)
    else:
        lines = text.split("\n")
        # blank lines are skipped, but errors name lines by their place in the file
        linenos = [n for n, line in enumerate(lines, start=1) if line != ""]
        if not linenos:
            raise ParseError("empty trace file")
        header = lines[linenos[0] - 1]
        if tuple(header.split(",")) != CSV_COLUMNS:
            raise ParseError(f"bad trace header {header!r}")
        rows = [lines[n - 1].split(",") for n in linenos[1:]]
        columns = _csv_columns(rows, linenos[1:])
    if not rows:
        # the schema columns exist even with no rows, so an empty trace grades vacuously
        columns = [()] * len(CSV_COLUMNS)
    return Trace(data=dict(zip(CSV_COLUMNS, columns)))


__all__ = ["Trace", "CSV_COLUMNS", "emit_trace", "load_trace"]
