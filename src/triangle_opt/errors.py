"""Exception types shared across the package, and the one rule every public
entry point checks its scalar arguments by."""

import math

import numpy as np


class TriangleOptError(Exception):
    """Base class for all triangle_opt errors."""


class DomainError(TriangleOptError):
    """A point lies outside the domain of an oracle or prox-function."""


class UnsupportedGeometry(TriangleOptError):
    """The requested (geometry, feasible set, composite term) combination has no solver."""


class ConfigError(TriangleOptError):
    """A configuration object is missing a required field or holds an invalid value."""


class ParseError(TriangleOptError):
    """Experiment or trace text could not be parsed."""


class ValidationError(TriangleOptError):
    """Parsed configuration violates the schema (unknown key, mode/field mismatch)."""


class MissingColumn(TriangleOptError):
    """A bound check needs a trace column that the trace does not carry."""


class BacktrackLimitExceeded(TriangleOptError):
    """The per-iteration doubling guard tripped; objective likely non-smooth or misconfigured."""


class CoefficientOverflow(TriangleOptError):
    """Coefficient growth left double range (A_k past 1e300), or a work count
    would leave the int64 range of the trace (more than 2**63 - 1 stochastic
    draws, once sumst's batch size follows a vanishing trial constant)."""


class IoError(TriangleOptError):
    """A trace file could not be read or written."""


_INTEGERS = (int, np.integer)
_NUMBERS = (int, float, np.integer, np.floating)


def _checked(name: str, value, minimum=None, above: bool = False, integer: bool = False,
             maximum=None, error: type = ConfigError):
    """value, if it keeps the number rule; else an ``error`` naming it as ``name``.

    The rule: a number (an int or numpy integer when ``integer`` is set; numpy
    numbers count), not a bool, finite, >= minimum (> minimum when ``above``
    is set) where given, and <= maximum where given (with a minimum)."""
    if integer:
        if (isinstance(value, _INTEGERS) and value.__class__ is not bool
                and (minimum is None or value >= minimum)):
            return value
        at_least = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{at_least}, got {value!r}")
    if not isinstance(value, _NUMBERS) or value.__class__ is bool:  # bool has no subclasses
        raise error(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    if ((minimum is not None and (value <= minimum if above else value < minimum))
            or (maximum is not None and value > maximum)):
        bound = (f"be {'>' if above else '>='} {minimum}" if maximum is None
                 else f"lie in {'(' if above else '['}{minimum}, {maximum}]")
        raise error(f"{name} must {bound}, got {value!r}")
    return value


__all__ = ["TriangleOptError", "DomainError", "UnsupportedGeometry", "ConfigError", "ParseError",
           "ValidationError", "MissingColumn", "BacktrackLimitExceeded", "CoefficientOverflow",
           "IoError"]
