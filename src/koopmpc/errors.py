"""Exception types shared across the package."""


class KoopmpcError(Exception):
    """Base class for all package errors."""


class InvalidInputError(KoopmpcError, ValueError):
    """Malformed, inconsistent, or non-finite input."""


class InsufficientDataError(KoopmpcError, ValueError):
    """Not enough samples for the requested fit or embedding."""


class ConvergenceError(KoopmpcError, RuntimeError):
    """An iterative routine hit its iteration budget.

    Carries the last residual and the best iterate so callers can inspect
    how close the routine got.
    """

    def __init__(self, message, residual=None, best=None):
        super().__init__(message)
        self.residual = residual
        self.best = best


class InfeasibleError(KoopmpcError, RuntimeError):
    """The constraint set of an optimization problem is empty."""


class DivergenceError(KoopmpcError, RuntimeError):
    """A simulated state left the trusted numerical range.

    ``partial`` holds whatever result was accumulated before the blow-up.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class MissingHistoryError(KoopmpcError, ValueError):
    """A delay-coordinate model was evaluated without enough history."""


class UnsupportedDictionaryError(KoopmpcError, ValueError):
    """The observable dictionary lacks a property required by the operation."""


class NoEigenfunctionError(KoopmpcError, RuntimeError):
    """No acceptable eigenfunction was found at the trial eigenvalue."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(KoopmpcError, ValueError):
    """A configuration file could not be parsed or validated."""
