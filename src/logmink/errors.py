"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can distinguish bad input (usage errors) from numerical
failures (solver gave up, geometry degenerate, ...).
"""


class LogminkError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameter(LogminkError, ValueError):
    """A argument is outside its documented domain (bad bandwidth, bounds, ...)."""


class GridMismatch(InvalidParameter):
    """Two objects that must share a spherical grid do not."""


class DimensionDeficient(LogminkError, ValueError):
    """Input point set does not span three dimensions."""


class OriginNotContained(LogminkError, ValueError):
    """Operation requires the origin in the closure of the body."""


class ConvexityError(LogminkError, RuntimeError):
    """A support function failed its convexity certificate.

    Carries the index of the first offending grid node in ``node``; the
    message also states the offending value.
    """

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class ConvergenceFailure(LogminkError, RuntimeError):
    """An iteration stopped without meeting its tolerance.

    ``residual`` holds the last residual sup-norm, ``iterations`` the number
    of iterations performed.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class StepFailure(LogminkError, RuntimeError):
    """A single flow step could not produce an admissible iterate."""


class GenerationFailure(LogminkError, RuntimeError):
    """Random data generation exhausted its retry budget."""
