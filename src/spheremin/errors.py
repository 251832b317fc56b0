"""Exception types shared across the package, and the one check each of
the integer arguments (the dimension or draw count n, the degree d, the
sample count) and of the tolerance that the public routines share."""

import sys


class SphereMinError(Exception):
    """Base class for all package-specific errors."""


class InvalidToleranceError(SphereMinError, ValueError):
    """Requested tolerance is outside the supported range (0, 1e-2]."""


class NonConvergentError(SphereMinError, ArithmeticError):
    """The survival-power integral has a tail that cannot be bounded: the
    law's exact remainder diverges, or its chords do not fall up to the
    largest floats, so the underlying expectation is divergent or
    numerically indistinguishable from it."""


class HypothesisViolatedError(SphereMinError, ValueError):
    """A route was asked for a distribution that violates one of its
    hypotheses.

    ``condition`` names the hypothesis: ``"density"`` means the density at
    zero is 0, infinite, or undefined, which the asymptotic formula needs;
    ``"log-concave"`` means that the survival of a law without an exact
    remainder is not log-concave, which the quadrature's tail bound needs.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _check_int(name: str, value: int, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) >= ``least``
    that converts to a float, as every computation with it does."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max:g}, "
                         f"got an integer of {value.bit_length()} bits")


def _check_tol(tol: float) -> None:
    """Raise InvalidToleranceError unless ``tol`` is a float in (0, 1e-2]."""
    if not (isinstance(tol, float) and 0.0 < tol <= 1e-2):
        raise InvalidToleranceError(f"tol must be in (0, 1e-2], got {tol!r}")
