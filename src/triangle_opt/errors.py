"""Exception types shared across the package."""


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
