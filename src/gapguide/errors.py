"""Exception hierarchy shared across the package."""


class GapguideError(Exception):
    """Base class for all package errors."""


class ValidationError(GapguideError):
    """Invalid input data (bad dielectric values, mismatched shapes, ...)."""


class ConfigError(GapguideError):
    """Invalid run configuration.  CLI exit code 2."""


class ResolutionError(GapguideError):
    """Grid too coarse to resolve a geometric feature."""


class GeometryError(GapguideError):
    """Geometrically impossible request (strip outside grid, margin too big)."""


class UnsupportedGeometryError(GapguideError):
    """Geometry outside the supported class (e.g. multiply connected mask)."""


class IterationError(GapguideError):
    """Iterative solver failed to converge.  CLI exit code 3."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual

