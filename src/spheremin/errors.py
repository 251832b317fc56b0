"""Exception types shared across the package, and the one check of the
integer arguments (the dimension or draw count n, the degree d, the
sample count) that the public routines share."""


class SphereMinError(Exception):
    """Base class for all package-specific errors."""


class InvalidToleranceError(SphereMinError, ValueError):
    """Requested tolerance is outside the supported range (0, 1e-2]."""


class NonConvergentError(SphereMinError, ArithmeticError):
    """The survival-power integral has a tail that cannot be bounded below
    the requested tolerance; the underlying expectation is divergent or
    numerically indistinguishable from divergent."""


class HypothesisViolatedError(SphereMinError, ValueError):
    """An asymptotic formula was requested for a distribution that violates
    one of its hypotheses.

    ``condition`` names the hypothesis; ``"density"`` means the density at
    zero is 0, infinite, or undefined.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _check_int(name: str, value: int, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) >= ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
