"""Exception hierarchy shared across the package.

A `ValidationError`, or any subclass, is bad input (CLI exit code 2); any
other `GapguideError` is a numerical failure (exit code 3).
"""


class GapguideError(Exception):
    """Base class for all package errors."""


class ValidationError(GapguideError):
    """Invalid input (a config value, dielectric values, shapes, ...)."""


class ResolutionError(ValidationError):
    """Grid too coarse to resolve a geometric feature."""


class GeometryError(ValidationError):
    """Geometrically impossible request (strip outside grid, margin too big)."""


class UnsupportedGeometryError(ValidationError):
    """Geometry outside the supported class (e.g. multiply connected mask)."""


class IterationError(GapguideError):
    """Iterative solver failed to converge.  CLI exit code 3."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
