"""Per-iteration run traces and their CSV/JSON serialization.

The serialized schema is fixed: columns k,A,alpha,L_trial,j,m,cum_f,cum_grad,
cum_stoch,gap with a mandatory header, '.' decimal separator, '\\n' newlines,
and floats printed to 17 significant digits so a round trip is exact.  An
in-memory trace may carry extra columns (squared distances to the optimum,
certificate margins) that bound checks consume; those never reach the files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError, MissingColumn, ParseError

CSV_COLUMNS = ("k", "A", "alpha", "L_trial", "j", "m",
               "cum_f", "cum_grad", "cum_stoch", "gap")
_INT_COLUMNS = frozenset(("k", "j", "m", "cum_f", "cum_grad", "cum_stoch"))


@dataclass
class Trace:
    """Columnar evidence rows; extra columns allowed beyond the CSV schema."""

    data: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)  # run-level scalars (not serialized)

    def __len__(self) -> int:
        if not self.data:
            return 0
        return len(next(iter(self.data.values())))

    def append(self, **fields) -> None:
        self.append_row(fields)

    def append_row(self, fields: dict) -> None:
        """append, with the row as a dict {column: value}."""
        if not self.data:
            self.data = {name: [] for name in fields}
        elif fields.keys() != self.data.keys():
            raise ParseError("trace rows must carry a consistent column set")
        data = self.data
        for name, value in fields.items():
            data[name].append(value)

    def has_column(self, name: str) -> bool:
        return name in self.data

    def column(self, name: str) -> np.ndarray:
        if name not in self.data:
            raise MissingColumn(f"trace has no column {name!r}")
        return np.asarray(self.data[name])

    def last(self, name: str):
        col = self.column(name)
        if col.size == 0:
            raise MissingColumn(f"trace column {name!r} is empty")
        return col[-1]


def _format_cell(name: str, value) -> str:
    if name in _INT_COLUMNS:
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return format(v, ".17g")


def emit_trace(trace: Trace, fmt: str, path: str) -> str:
    """Write the schema columns of a trace as CSV or JSON; returns the path."""
    if fmt not in ("csv", "json"):
        raise ParseError(f"unknown trace format {fmt!r}")
    for name in CSV_COLUMNS:
        if len(trace) and not trace.has_column(name):
            raise MissingColumn(f"cannot emit trace without column {name!r}")
    try:
        if fmt == "csv":
            lines = [",".join(CSV_COLUMNS)]
            for i in range(len(trace)):
                lines.append(",".join(_format_cell(name, trace.data[name][i])
                                      for name in CSV_COLUMNS))
            text = "\n".join(lines) + "\n"
            with open(path, "w", newline="") as fh:
                fh.write(text)
        else:
            rows = []
            for i in range(len(trace)):
                row = {}
                for name in CSV_COLUMNS:
                    v = trace.data[name][i]
                    if name in _INT_COLUMNS:
                        row[name] = int(v)
                    else:
                        fv = float(v)
                        row[name] = None if math.isnan(fv) else fv
                rows.append(row)
            with open(path, "w") as fh:
                json.dump(rows, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write trace to {path}: {exc}") from exc
    return path


def _parse_cell(name: str, text: str, lineno: int):
    try:
        if name in _INT_COLUMNS:
            return int(text)
        return float(text)  # accepts 'nan'
    except ValueError as exc:
        raise ParseError(f"line {lineno}: bad value {text!r} for column {name!r}") from exc


def _json_cell(name: str, value, index: int):
    """A JSON cell: integer columns take JSON integers, float columns numbers or null."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if name in _INT_COLUMNS and isinstance(value, int) and is_number:
        return value
    if name not in _INT_COLUMNS and (value is None or is_number):
        return math.nan if value is None else float(value)
    raise ParseError(f"row {index}: bad value {value!r} for column {name!r}")


def load_trace(path: str) -> Trace:
    """Read a trace file written by emit_trace (format inferred from extension)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read trace from {path}: {exc}") from exc
    # the schema columns exist even with no rows, so an empty trace grades vacuously
    trace = Trace(data={name: [] for name in CSV_COLUMNS})
    if str(path).endswith(".json"):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON trace: {exc}") from exc
        if not isinstance(rows, list):
            raise ParseError("JSON trace must be an array of row objects")
        for index, row in enumerate(rows):
            if not isinstance(row, dict):
                raise ParseError(f"row {index}: JSON trace row {row!r} is not an object")
            if set(row) != set(CSV_COLUMNS):
                raise ParseError(f"row {index}: JSON trace row keys {sorted(row)} "
                                 "do not match the schema")
            trace.append_row({name: _json_cell(name, row[name], index)
                              for name in CSV_COLUMNS})
        return trace
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise ParseError("empty trace file")
    header = tuple(lines[0].split(","))
    if header != CSV_COLUMNS:
        raise ParseError(f"bad trace header {lines[0]!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ParseError(f"line {lineno}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        trace.append_row({name: _parse_cell(name, cell, lineno)
                          for name, cell in zip(CSV_COLUMNS, cells)})
    return trace


__all__ = ["Trace", "CSV_COLUMNS", "emit_trace", "load_trace"]
