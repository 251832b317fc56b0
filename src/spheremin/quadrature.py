"""Log-space evaluation of int_0^inf survival(y)^n dy.

The integrand is only ever formed as exp(n * log_survival(y)), so large n
never underflows prematurely; where it does, math.exp returns 0.0, and
that is the one test of underflow.

One geometric grid carries both the panels and the tail bound.  Its
boundaries b_k = w0 * 4^k start from a first width w0 on the scale where
the mass sits: 1/(n f(0)) when the density at 0 is positive, which leaves
the integrand near e^-4 there, else 1/sqrt(n).  Either moves down by 4
while n log S there is below _FIRST_PANEL_LOG_FLOOR: the G10/K21 error
estimate of a first panel far wider than the mass can understate it.
It stops at _MIN_WIDTH; if the integrand has underflowed even there, the
panel [0, b_0] may miss the mass, and b_0 joins the tail bound.
Survival is monotone, so the block [b, 4b] contributes at most
3b * survival(b)^n.
The tail test rests on one premise: the ratio r of a block to the one
before it does not rise with b.  It holds for every log-concave survival,
since d/db log(S(4b)/S(b)) = h(b) - 4h(4b) <= 0 for a non-decreasing
hazard h, and for the power law (1+y)^-alpha.  So once r is at most
_TAIL_RATIO_CAP**2, the integral beyond b is at most block / (1 - r).
A boundary counts only from there on.  Where the law has a closed-form
remainder (Distribution.log_mean_residual: the exponential, uniform01 and
the heavy tail), the boundary b where the ratio passes is only the ratio's
look-ahead: the walk forms the remainder beyond the boundary b/4 before
it, from the n log S(b/4) it has already evaluated, adds it to the value,
and counts only its rounding as the tail.  exp magnifies the rounding of
its argument, so that is a few eps times |n log S(b/4)| plus a few, and
one subnormal step where the remainder is subnormal.

The grid is walked once.  The walk stops at the first boundary whose tail
fits half the tolerance, but not below 1 unless the block and the
integrand both underflow there, or the tail is below _NEGLIGIBLE_TAIL of
b_0 S(b_0)^n, which bounds the value from below since S is monotone.  At
large n that ends the walk a few boundaries past the mass, not where the
integrand underflows; the clause y >= 1 keeps a value below the absolute
tolerance accurate relative to itself.  A law with a remainder skips both
clauses, since the rounding of an exact remainder is already relative to
the value: it stops at the boundary before the ratio's look-ahead once
the remainder's rounding fits, which is often b_0 itself.  That boundary
is the truncation point y*, which a bounded support clips.  A walk that
reaches the largest floats stops there if it has a tail, which then
misses the tolerance, and otherwise raises NonConvergentError: its blocks
show too little decay (for the heavy tail, exactly when n * alpha <=
1.074), so the expected minimum is divergent or nearly so.

The panels between consecutive boundaries up to y* are integrated by
QUADPACK's 10/21-point Gauss-Kronrod pair (qk21): 21 evaluations give the
K21 value and the error estimate |K21 - G10|, one exact sum, so it is not
a whole number of ulps of the panel's value.  Panels that miss their share
of the tolerance are bisected, within one budget of leaves per integral,
so every call does bounded work.  The result is the MinResult that every
route of minima hands on: its value is the panels' sum plus any exact
remainder, and it has converged exactly when its error bound, the tail
plus the panel errors, is within the tolerance.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

from .distributions import Distribution
from .errors import InvalidToleranceError, NonConvergentError, _check_int

# QUADPACK qk21 (Piessens et al., 1983) on [-1, 1]: the 21 Kronrod nodes,
# largest first; the 10 Gauss nodes are those at odd indices.
_XK_HALF = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WK_HALF = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG_HALF = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_XK = _XK_HALF + tuple(-x for x in _XK_HALF[-2::-1])
_WK = _WK_HALF + _WK_HALF[-2::-1]
_WG = _WG_HALF + _WG_HALF[::-1]
# K21 - G10 at each node: the Gauss weights sit at the odd indices
_WD = tuple(w - _WG[i // 2] if i % 2 else w for i, w in enumerate(_WK))

_TAIL_RATIO_CAP = 0.95  # per doubling; the grid's blocks span two doublings
# the rounding of an exact remainder exp(arg + log_mean_residual), per unit
# of |arg| + |log_mean_residual| + log(n) + 4, plus one subnormal step, the
# rounding of exp where the remainder is subnormal
_REMAINDER_ROUNDING = 8.0 * sys.float_info.epsilon
_SUBNORMAL_STEP = math.ulp(0.0)
# leaves (accepted panels) per integral, which bounds the work of any call;
# the integrals of the benchmark's dist-grid workload need at most 12
# (seeds 1-10, rounds 0-2; the power law's), and those of the laws with an
# exact remainder at most 3
_MAX_LEAVES = 1000
# the least first width: positive even when n * f(0) overflows
_MIN_WIDTH = 2.0**-1022
# a first panel far wider than the mass lets G10/K21 understate its error
_FIRST_PANEL_LOG_FLOOR = -8.0
# a tail this far below a lower bound on the value cannot move its rounding
_NEGLIGIBLE_TAIL = 2.0**-60


@dataclass(frozen=True)
class MinResult:
    n: int
    value: float
    method: str  # "quadrature" or "asymptotic"
    error_bound: Optional[float] = None  # this and the rest None when asymptotic
    converged: Optional[bool] = None  # error_bound <= tol
    truncation_point: Optional[float] = None  # y*, where the panels end
    panels: Optional[int] = None  # accepted G10/K21 panels


def _integrate_panel(log_s, n, a, b):
    """One G10/K21 panel: the integrand exp(n * log_s(y)) is evaluated once
    at the 21 Kronrod nodes of [a, b], inline rather than through a closure
    that would cost a call per node.  Returns the K21 value and the error
    estimate |K21 - G10|, one exact sum over the weight differences _WD."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fx = [math.exp(n * log_s(c + h * x)) for x in _XK]
    return h * math.fsum(map(operator.mul, _WK, fx)), abs(h * math.fsum(map(operator.mul, _WD, fx)))


def _integrate_mesh(log_s, n, bounds, loc_tol):
    """Adaptive bisection of the panels between consecutive bounds of the
    integral of exp(n * log_s(y)).

    A panel is accepted when its error is within ``loc_tol`` (halved at
    each bisection) or at the level of rounding, or when splitting it
    would take the accepted and pending panels past _MAX_LEAVES; otherwise
    it is bisected.  Returns (value, error, leaves)."""
    values, errors = [], []
    stack = [(a, b, loc_tol) for a, b in zip(bounds, bounds[1:])]
    stack.reverse()  # left to right: a budget that runs out is spent near 0
    while stack:
        a, b, tol = stack.pop()
        value, err = _integrate_panel(log_s, n, a, b)
        if (err <= tol or err <= 4e-16 * abs(value)
                or len(values) + len(stack) + 2 > _MAX_LEAVES):
            values.append(value)
            errors.append(err)
        else:
            m = 0.5 * (a + b)
            stack += [(m, b, 0.5 * tol), (a, m, 0.5 * tol)]
    return math.fsum(values), math.fsum(errors), len(values)


def _grid(dist: Distribution, n: int, budget: float):
    """Panel bounds 0, b_0, ..., y* on the boundaries b_k = w0 * 4^k, the
    tail, and the exact remainder beyond y* (0.0 for a law without one).
    The tail is, by the rules of the module docstring, a certified bound
    on the integral the panels cannot see beyond y*, or the rounding of
    the remainder, plus the mass below b_0 if the integrand has underflowed
    there.  The walk stops at y* once the tail fits ``budget`` and y* >= 1
    or the tail is negligible beside b_0 S(b_0)^n, or once the block and
    the integrand underflow.  A law with a remainder stops instead once
    the ratio passes at 4 y* and the remainder's rounding fits ``budget``;
    that look-ahead boundary is dropped from the bounds.  Raises
    NonConvergentError at the largest floats without a tail."""
    f0 = dist.density_at_zero
    if f0 is not None and math.isfinite(f0) and f0 > 0.0:
        w0 = min(1.0, 4.0 / (n * f0 + 1.0))
    else:
        w0 = 1.0 / math.sqrt(n)
    b = max(w0, _MIN_WIDTH)
    arg = n * dist.log_survival(b)
    while arg < _FIRST_PANEL_LOG_FLOOR and b > _MIN_WIDTH:
        b = max(0.25 * b, _MIN_WIDTH)
        arg = n * dist.log_survival(b)
    bounds = [0.0, b]
    # S is monotone, so b_0 S(b_0)^n <= the integral over [0, b_0] <= the value
    negligible = _NEGLIGIBLE_TAIL * b * math.exp(arg)
    prev = prev_arg = 0.0  # the block and n log S at the boundary before b
    while True:
        block = math.exp(arg + math.log(3.0 * b))  # >= the integral over [b, 4b]
        r = block / prev if prev > 0.0 else 1.0  # no ratio at the first boundary
        last = b > sys.float_info.max / 4.0
        if r <= _TAIL_RATIO_CAP**2 and dist.log_mean_residual is not None:
            # the gate passes at b, which serves only as its look-ahead: the
            # exact remainder stands at the boundary before it
            log_residual = dist.log_mean_residual(n, bounds[-2])
            remainder = math.exp(prev_arg + log_residual)
            tail = (remainder * _REMAINDER_ROUNDING * (abs(prev_arg) + abs(log_residual) + math.log(n) + 4.0)
                    + _SUBNORMAL_STEP)
            if tail <= budget or last:
                bounds.pop()
                break
        remainder = 0.0
        if block == 0.0 and math.exp(arg) == 0.0:
            # the block bound and the integrand both underflow; at b_0 (only
            # at _MIN_WIDTH) the panel there may miss the mass of [0, b_0],
            # which S^n <= 1 bounds by b_0
            tail = b if b == bounds[1] else 0.0
            break
        if r > _TAIL_RATIO_CAP**2 or dist.log_mean_residual is not None:
            tail = math.inf  # a law with a remainder stops only above
        else:
            tail = block / (1.0 - r)
        if (tail <= budget and (b >= 1.0 or tail <= negligible)) or (last and tail < math.inf):
            break
        if last:
            raise NonConvergentError(
                f"tail of survival^{n} for {dist.name} cannot be bounded; "
                "the expected minimum is divergent or nearly so"
            )
        prev, prev_arg, b = block, arg, 4.0 * b
        bounds.append(b)
        arg = n * dist.log_survival(b)
    bounds[-1] = min(bounds[-1], dist.support_upper)
    return bounds, tail, remainder


def survival_power_integral(dist: Distribution, n: int, tol: float) -> MinResult:
    """E[min of n iid draws] = int_0^inf exp(n log_survival(y)) dy: the
    panels up to y* (truncation_point) plus the exact remainder beyond it
    where the law has one, else a certified tail bound.

    ``tol`` is an absolute error target on the integral value (the value
    itself shrinks like 1/n, so relative targets are unstable).
    """
    _check_int("n", n)
    if not (isinstance(tol, float) and 0.0 < tol <= 1e-2):
        raise InvalidToleranceError(f"tol must be in (0, 1e-2], got {tol!r}")

    bounds, tail_bound, remainder = _grid(dist, n, 0.5 * tol)
    # equal per-panel budget: on a geometric mesh a width-proportional
    # split would starve the panels near 0 where the mass sits
    loc_tol = 0.5 * tol / (len(bounds) - 1)
    value, panel_error, panels = _integrate_mesh(dist.log_survival, n, bounds, loc_tol)
    error_bound = tail_bound + panel_error
    return MinResult(n, value + remainder, "quadrature", error_bound, error_bound <= tol, bounds[-1], panels)
