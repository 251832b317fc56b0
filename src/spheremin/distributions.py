"""Nonnegative random-variable models.

A :class:`Distribution` carries what the two routes to the expected
minimum read: the log-survival function ln(1 - F(y)), from which the
quadrature forms survival(y)^n in log space, the density at 0+ that the
asymptotic law 1/(f(0)(n+1)) needs, and the upper end of the support.

``density_at_zero`` is a stored closed-form value, never a numerical
limit: the asymptotic constant 1/(f(0)(n+1)) is exactly sensitive to it
and one-sided numerical differentiation at a support boundary is
ill-conditioned.  ``None`` marks "undefined"; ``math.inf`` is allowed.

Support is always [0, inf) or a bounded [0, support_upper].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .special import SQRT_PI, log_erfc


@dataclass(frozen=True)
class Distribution:
    name: str
    log_survival: Callable[[float], float]
    density_at_zero: Optional[float]  # None = undefined, math.inf allowed
    support_upper: float  # math.inf for unbounded support


def half_normal() -> Distribution:
    """|Z| for Z normal with mean 0 and variance 1/2: cdf erf, survival erfc."""
    return Distribution(
        name="half-normal",
        log_survival=log_erfc,
        density_at_zero=2.0 / SQRT_PI,
        support_upper=math.inf,
    )


def exponential(rate: float) -> Distribution:
    """Exponential with the given rate; log-survival is exactly -rate*y."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"exponential requires rate > 0, got {rate!r}")
    return Distribution(
        name=f"exponential:{rate:g}",
        log_survival=lambda y: -rate * y,
        density_at_zero=rate,
        support_upper=math.inf,
    )


def uniform01() -> Distribution:
    """Uniform on [0, 1]; the minimum of n draws has mean exactly 1/(n+1)."""
    return Distribution(
        name="uniform01",
        log_survival=lambda y: math.log1p(-y) if y < 1.0 else -math.inf,
        density_at_zero=1.0,
        support_upper=1.0,
    )


def power_law(k: float) -> Distribution:
    """F(y) = y^k on [0, 1] with k > 1: vanishing density at 0.

    Deliberately violates the nonvanishing-density hypothesis of the
    asymptotic minimum law.
    """
    if not (math.isfinite(k) and k > 1):
        raise ValueError(f"power_law requires k > 1, got {k!r}")
    return Distribution(
        name=f"power-law:{k:g}",
        log_survival=lambda y: math.log1p(-(y**k)) if 0.0 <= y < 1.0 else (0.0 if y < 0 else -math.inf),
        density_at_zero=0.0,
        support_upper=1.0,
    )


def heavy_tail(alpha: float) -> Distribution:
    """Survival (1+y)^(-alpha): polynomial tail.

    survival^n is integrable exactly when n*alpha > 1.  For n*alpha <= 1
    the expected minimum of n draws is infinite and the quadrature
    reports nonconvergence.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"heavy_tail requires alpha > 0, got {alpha!r}")
    return Distribution(
        name=f"heavy-tail:{alpha:g}",
        log_survival=lambda y: -alpha * math.log1p(y),
        density_at_zero=alpha,
        support_upper=math.inf,
    )
