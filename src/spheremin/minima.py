"""Expected minima of iid nonnegative variables.

Two routes where the density at 0 is positive: exact survival-power
quadrature and the large-n asymptotic 1/(f(0)(n+1)); a law with f(0) = 0,
such as the power law, has only the quadrature.  The half-normal
specializations give the mean smallest coordinate magnitude on the sphere
via the gamma half-ratio prefactor; the sphere's large-n law is that
prefactor times asymptotic_min(half_normal(), n).  Every route returns
the quadrature's MinResult; the asymptotic route fills only its n, value
and method.
"""

from __future__ import annotations

import dataclasses
import math
import sys

from .distributions import Distribution, half_normal
from .errors import HypothesisViolatedError, _check_int
from .quadrature import MinResult, survival_power_integral
from .special import gamma_ratio

DEFAULT_TOL = 1e-10


def expected_min(dist: Distribution, n: int, tol: float = DEFAULT_TOL) -> MinResult:
    """E[min of n iid draws] = int_0^inf survival(y)^n dy, by the quadrature,
    looked up as this module's global so that a wrapper installed there sees it."""
    return survival_power_integral(dist, n, tol)


def nmin(n: int, tol: float = DEFAULT_TOL) -> MinResult:
    """Expected minimum of |Z_1|, ..., |Z_n| for iid normals with variance 1/2."""
    return expected_min(half_normal(), n, tol)


def emin(n: int, tol: float = DEFAULT_TOL) -> MinResult:
    """Mean of min_i |x_i| over the unit sphere S^(n-1).

    Equals Gamma(n/2)/Gamma((n+1)/2) times the half-normal expected
    minimum; min|x_i| is 1-homogeneous, so the transfer factor is exact.
    The value and bound are nmin's scaled by that factor, and the bound also
    carries the factor's rounding, within 3 eps relative, and that of the
    product; the truncation point and panels are those of nmin's
    half-normal integral.
    """
    base = nmin(n, tol)
    factor = gamma_ratio(n, 1)
    value = factor * base.value
    error_bound = factor * base.error_bound + 3.5 * sys.float_info.epsilon * value
    return dataclasses.replace(base, value=value, error_bound=error_bound, converged=error_bound <= tol)


def asymptotic_min(dist: Distribution, n: int) -> MinResult:
    """Large-n law E[min] ~ 1/(f(0)(n+1)).

    Requires a positive finite density at 0; no error bound is available,
    only the leading term.
    """
    _check_int("n", n)
    f0 = dist.density_at_zero
    if f0 is None or not math.isfinite(f0) or f0 <= 0.0:
        raise HypothesisViolatedError(
            "density",
            f"{dist.name}: asymptotic minimum needs a finite nonvanishing "
            f"density at 0, but f(0+) is {'undefined' if f0 is None else f0}",
        )
    scale = f0 * (n + 1)
    value = 1.0 / scale if math.isfinite(scale) else 1.0 / (n + 1) / f0
    return MinResult(n, value, "asymptotic")
