"""Stable scalar special functions.

Everything here is a pure function of its arguments.  The rest of the
package relies on two accuracy contracts: absolute error <= 1e-12 for
log_erfc up to y = 1e4, and relative error <= 3 eps for gamma_ratio at
every n when d <= 3 and the value is a normal float.
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
# ln Gamma(y+1/2) - ln Gamma(y) = ln(y)/2 + sum c_m / y^(m-1) with the exact c_m =
# (2^(1-m) - 2) B_m / (m (m-1)), m = 2, 4, ..., 20 (DLMF 5.11.8); from y = 8 the rest is < 3e-18
_HALF_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
                      -5461 / 425984, 929569 / 15728640, -3202291 / 8912896, 221930581 / 79691776)


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
    """Gamma(n/2) / Gamma((n+d)/2); d = 0 returns exactly 1.

    This is the exact conversion factor between Gaussian-space and
    sphere-space means of d-homogeneous functions.  At x = n/2 the half
    ratio Gamma(x)/Gamma(x+1/2) is ((x+1/2)/x)((x+3/2)/(x+1))... up to the
    first y = x + k >= 8, times exp(-s/y)/sqrt(y) with s the series above
    in 1/y^2; other d follow through Gamma(y+1) = y Gamma(y).
    """
    _check_int("n", n)
    _check_int("d", d, 0)
    x = n / 2.0
    ratio = 1.0
    if d % 2:
        y, num, den = x, 1.0, 1.0  # both products are exact below y = 8
        while y < 8.0:
            num, den, y = num * (y + 0.5), den * y, y + 1.0
        z, s = 1.0 / (y * y), 0.0
        for c in reversed(_HALF_RATIO_SERIES):
            s = s * z + c
        ratio = num / den * math.exp(-s / y) / math.sqrt(y)
    # the factors are at least 1/2 and grow by 1 a step: underflow within ~180 steps
    for j in range(d // 2):
        ratio /= x + d % 2 / 2.0 + j
        if ratio == 0.0:
            break
    return ratio
