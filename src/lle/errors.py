"""Exception taxonomy shared by all modules.

The CLI maps these to its exit-code contract: usage problems exit 2,
numeric/capability problems exit 3, verification failures exit 1.
"""


class LleError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LleError, ValueError):
    """Input outside the mathematical domain of an operation."""


class CapabilityError(LleError):
    """Request exceeds a supported cap (level index, matrix dimension, variant)."""


class NumericError(LleError):
    """A numerical procedure failed to converge to its stated tolerance."""


class AccuracyError(NumericError):
    """Tolerance not met within budget; carries the accuracy actually achieved."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class WindowError(LleError):
    """A truncation window was exhausted while the boundary still contributed."""


class FitError(LleError):
    """Least-squares fit rejected (ill-conditioned window or too few points)."""


class UsageError(LleError):
    """Invalid run configuration (CLI layer)."""
