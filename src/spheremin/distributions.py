"""Nonnegative random-variable models.

A :class:`Distribution` carries what the two routes to the expected
minimum read: the log-survival function ln(1 - F(y)), from which the
quadrature forms survival(y)^n in log space, the density at 0+ that the
asymptotic law 1/(f(0)(n+1)) needs, and the upper end of the support.

``density_at_zero`` is a stored closed-form value, never a numerical
limit: the asymptotic constant 1/(f(0)(n+1)) is exactly sensitive to it
and one-sided numerical differentiation at a support boundary is
ill-conditioned.  ``None`` marks "undefined"; otherwise it must be >= 0,
``math.inf`` allowed, which the constructor checks.

Support is always [0, inf) or a bounded [0, support_upper], with
support_upper > 0, which the constructor checks.

``log_mean_residual`` is the exact tail: log_mean_residual(n, b) =
log(int_b^inf S^n / S(b)^n), which the quadrature adds to n log S(b).
Its rounding must stay within a few eps of |n log S(b)| + |its value| +
log(n) + 4.  The exponential, uniform01 and the heavy tail have one.  A
law without one (half-normal, power-law, or one built by hand) must have
a log-concave survival (a non-decreasing hazard rate) with S(0) = 1, and
a log_survival within a few eps of its magnitude: the quadrature bounds
its tail by the chord of n log S through the last two points of its grid,
starting from (0, 0), which lies above n log S beyond them only then.
The quadrature raises HypothesisViolatedError with condition
"log-concave" where its chords, or the panel beyond the last of them,
show otherwise.

``single_scale`` says that S^n has no part near 0 that falls off far
faster than on the scale 1/(n f(0)) that a finite positive density at 0
sets, as the mixture p e^-y + q e^-(lam y) with lam far above n has.
Where it holds, the quadrature may accept its panel at 0 at G10's 10
nodes, on a null-rule estimate of their error from which such a faster
part can hide.  Every log-concave law qualifies, since its hazard never
falls; the four built-in laws with a finite positive f(0) set it, and a
law that leaves it False takes K21 on that panel as on every other.  The
heavy tail is not log-concave, but its hazard alpha/(1 + y) falls only on
the scale 1 + y, and the panel at 0 ends at b_0 <= 1, so across it the
hazard falls by at most a factor of 2: no part of S^n there falls off far
faster than the rest.
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
    # log(int_b^inf S^n / S(b)^n) as a function of (n, b); None = no closed
    # form, and then the survival must be log-concave
    log_mean_residual: Optional[Callable[[int, float], float]] = None
    # no part of S^n near 0 falls off far faster than on the scale
    # 1/(n f(0)), so G10 may stand alone on the panel at 0
    single_scale: bool = False

    def __post_init__(self):
        # the variable is nonnegative, so its support [0, support_upper] must
        # hold more than the point 0; a NaN fails the test too
        if not self.support_upper > 0.0:
            raise ValueError(f"{self.name}: support_upper must be > 0, got {self.support_upper!r}")
        # a density is >= 0; a NaN fails this test too
        if self.density_at_zero is not None and not self.density_at_zero >= 0.0:
            raise ValueError(f"{self.name}: density_at_zero must be >= 0 or None, "
                             f"got {self.density_at_zero!r}")


def _smooth_at_zero(dist: Distribution) -> bool:
    """Whether the law's density at 0 is finite and positive: the asymptote
    1/(f(0)(n+1)) needs it, and then S^n falls from 1 on the scale
    1/(n f(0)), with no cusp at 0, where the quadrature sizes its first
    panel."""
    f0 = dist.density_at_zero
    return f0 is not None and math.isfinite(f0) and f0 > 0.0


def half_normal() -> Distribution:
    """|Z| for Z normal with mean 0 and variance 1/2: cdf erf, survival erfc."""
    return Distribution(
        name="half-normal",
        log_survival=log_erfc,
        density_at_zero=2.0 / SQRT_PI,
        support_upper=math.inf,
        single_scale=True,
    )


def exponential(rate: float) -> Distribution:
    """Exponential with the given rate; log-survival is exactly -rate*y, and
    the remainder beyond b is S(b)^n / (n rate)."""
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"exponential requires rate > 0, got {rate!r}")
    log_rate = math.log(rate)
    return Distribution(
        name=f"exponential:{rate:g}",
        log_survival=lambda y: -rate * y,
        density_at_zero=rate,
        support_upper=math.inf,
        log_mean_residual=lambda n, b: -math.log(n) - log_rate,
        single_scale=True,
    )


def uniform01() -> Distribution:
    """Uniform on [0, 1]; the minimum of n draws has mean exactly 1/(n+1),
    and the remainder beyond b is (1-b)^(n+1) / (n+1), 0 from b = 1 on."""
    return Distribution(
        name="uniform01",
        log_survival=lambda y: math.log1p(-y) if y < 1.0 else -math.inf,
        density_at_zero=1.0,
        support_upper=1.0,
        log_mean_residual=lambda n, b: math.log1p(-b) - math.log(n + 1) if b < 1.0 else -math.inf,
        single_scale=True,
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

    survival^n is integrable exactly when n*alpha > 1, and its remainder
    beyond b is then S(b)^n (1+b) / (n*alpha - 1).  For n*alpha <= 1 the
    expected minimum of n draws is infinite and the quadrature reports
    nonconvergence.  It also does so, wrongly, for 1 < n*alpha <= 1.074,
    where the blocks of its grid decay too slowly for its tail test ever
    to pass, which the quadrature asks before it takes that remainder.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"heavy_tail requires alpha > 0, got {alpha!r}")
    log_alpha = math.log(alpha)

    def log_mean_residual(n, b):
        # log(n alpha - 1) as log(n) + log(alpha) + log(1 - 1/(n alpha)),
        # which stays finite where the product n * alpha overflows
        return math.log1p(b) - math.log(n) - log_alpha - math.log1p(-1.0 / (n * alpha))

    return Distribution(
        name=f"heavy-tail:{alpha:g}",
        log_survival=lambda y: -alpha * math.log1p(y),
        density_at_zero=alpha,
        support_upper=math.inf,
        log_mean_residual=log_mean_residual,
        single_scale=True,
    )
