"""Shared exception types."""


class QLatticeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QLatticeError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """A denominator or required invertible quantity vanished."""


class DegeneracyError(QLatticeError, ValueError):
    """A configuration is too close to degenerate to be resolved numerically.

    index is the position of the failing item when a kernel ran on a stack.
    """

    def __init__(self, message, estimate=None, index=None):
        super().__init__(message)
        self.estimate = estimate
        self.index = index


class PoleProximityError(DegeneracyError):
    """Evaluation point is on or too close to a pole/zero line."""


class AccuracyError(QLatticeError, RuntimeError):
    """An iterative scheme failed to reach the requested accuracy."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConfigurationError(QLatticeError, ValueError):
    """Invalid or oversized run configuration."""
