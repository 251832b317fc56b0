"""Stable scalar special functions.

Everything here is a pure function of its arguments.  The accuracy
contract (absolute error <= 1e-12 for log_erfc up to y = 1e4) is what the
rest of the package relies on.
"""

from __future__ import annotations

import math

from .errors import _check_int

SQRT_PI = math.sqrt(math.pi)

# log_erfc regime switch points: below the first, erfc(y) is close to 1 and
# log1p(-erf) avoids cancellation; above the second, erfc(y) is close to the
# underflow threshold and the asymptotic expansion takes over.
_LOG1P_CUTOFF = 0.5
_ASYMPTOTIC_CUTOFF = 25.0


def log_erfc(y: float) -> float:
    """ln(erfc(y)), finite and accurate far past where erfc underflows.

    Three regimes: log1p(-erf y) for small y, plain log(erfc y) in the
    middle, and the large-y asymptotic expansion
    ln erfc(y) = -y^2 - ln(y sqrt(pi)) + ln(1 - 1/(2y^2) + 3/(4y^4) - ...)
    once erfc approaches the underflow threshold.
    """
    if not math.isfinite(y) or y < 0.0:
        raise ValueError(f"log_erfc requires finite y >= 0, got {y!r}")
    if y < _LOG1P_CUTOFF:
        return math.log1p(-math.erf(y))
    if y < _ASYMPTOTIC_CUTOFF:
        return math.log(math.erfc(y))
    # asymptotic series sum_k (-1)^k (2k-1)!! / (2y^2)^k; at y >= 25 the
    # terms fall below double precision within a handful of iterations
    z = 2.0 * y * y
    term = 1.0
    total = 1.0
    for k in range(1, 30):
        term *= -(2 * k - 1) / z
        total += term
        if abs(term) < 1e-20:
            break
    return -y * y - math.log(y * SQRT_PI) + math.log(total)


def gamma_ratio(n: int, d: int) -> float:
    """Gamma(n/2) / Gamma((n+d)/2), computed in log space.

    Finite for n up to 1e7; d = 0 returns exactly 1.  This is the exact
    conversion factor between Gaussian-space and sphere-space means of
    d-homogeneous functions.
    """
    _check_int("n", n)
    _check_int("d", d, 0)
    if d == 0:
        return 1.0
    return math.exp(math.lgamma(n / 2.0) - math.lgamma((n + d) / 2.0))

