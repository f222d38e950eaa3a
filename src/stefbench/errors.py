"""Exception types shared across the package."""


class StefbenchError(Exception):
    """Base class for all stefbench errors."""


class InvalidPrecisionError(StefbenchError):
    """Requested precision is outside the supported range."""


class DomainError(StefbenchError):
    """A function was evaluated outside its real domain (ln of a
    non-positive value, sqrt of a negative, division by exact zero)."""


class ParseError(StefbenchError):
    """Expression text could not be parsed.

    ``position`` is the byte offset into the source where the problem
    was detected.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class BreakdownError(StefbenchError):
    """A method denominator fell below the breakdown floor, so the step
    is numerically meaningless."""


class RefinementError(StefbenchError):
    """Root refinement failed to reach the convergence floor."""


class InsufficientDataError(StefbenchError):
    """Not enough usable trace entries for the requested estimate."""


class SimpleRootError(StefbenchError):
    """The refined point is not a simple root (|f'| below the breakdown
    floor), so normalized Taylor coefficients are undefined."""
