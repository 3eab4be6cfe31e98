"""Exception types shared across the package.

The CLI maps these onto process exit codes, so estimator code should raise
the most specific class that applies rather than a bare Exception.
"""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(EstimationError):
    """Malformed or inconsistent experiment configuration."""


class InvalidModelError(EstimationError):
    """A density or proposal violates a structural requirement."""


class UndefinedPointError(EstimationError):
    """A quantity is evaluated at a state where it is not defined."""


class DegenerateDenominatorError(EstimationError):
    """A ratio estimate has a zero or non-finite denominator, or leaves float range."""


class InsufficientDataError(EstimationError):
    """Too few samples for the requested computation."""


class InsufficientRegenerationError(InsufficientDataError):
    """Too few regeneration tours for the requested computation."""


class ConvergenceError(EstimationError):
    """Optimizer failed to reach the requested tolerance."""
