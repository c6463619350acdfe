"""Exception hierarchy shared across the package."""


class MarginSeqError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MarginSeqError, ValueError):
    """Input violates a documented precondition (infeasible point, bad range)."""


class DegenerateTangentError(DomainError):
    """Tangent construction requested from a point on the circle."""


class VerticalTangentError(DomainError):
    """Tangent construction would produce a vertical line (no finite slope)."""


class GeometryError(MarginSeqError):
    """Invalid separator (its attackable region is unbounded) or a violated geometric invariant."""


class PoolExhaustedError(MarginSeqError):
    """Every candidate in the pool has already been consumed."""


class UndefinedEstimateError(MarginSeqError):
    """A greedy step with nothing to pick by, or a pick with a NaN estimate; scorers return NaN."""


class ScenarioFileError(MarginSeqError, ValueError):
    """Scenario configuration file is missing keys or fails to parse."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
