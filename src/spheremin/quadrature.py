"""Log-space evaluation of int_0^inf survival(y)^n dy.

The integrand is only ever formed as exp(n * log_survival(y)), so large n
never underflows prematurely.  For unbounded support the tail beyond the
truncation point is bounded by summing dyadic blocks [b, 2b]: survival is
monotone, so each block contributes at most b * survival(b)^n, and the
observed block-to-block decay ratio bounds the remainder geometrically.
Heavy tails whose blocks never decay (a divergent expectation) surface as
NonConvergentError instead of a silently wrong number.

Up to the truncation point the integral is split into panels whose widths
grow by a factor of 4 away from the origin, where the mass sits.  Each
panel is integrated by QUADPACK's 10/21-point Gauss-Kronrod pair (qk21):
21 evaluations give the K21 value and the error estimate |K21 - G10|.
Panels that miss their share of the tolerance are bisected, within one
budget of leaves per integral, so every call does bounded work; a result
whose budget ran out reports converged=False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
_XK = _XK_HALF + tuple(-x for x in reversed(_XK_HALF[:-1]))
_WK = _WK_HALF + tuple(reversed(_WK_HALF[:-1]))
_WG = _WG_HALF + tuple(reversed(_WG_HALF))

_MAX_TAIL_BLOCKS = 600
_TAIL_RATIO_CAP = 0.95
# leaves (accepted panels) per integral, which bounds the work of any call;
# the integrals of the benchmark's dist-grid workload need at most 77
_MAX_LEAVES = 1000
_EXP_UNDERFLOW = -745.0


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_bound: float
    truncation_point: float
    panels: int
    converged: bool


def _integrate_panel(g, a, b):
    """One G10/K21 panel: g is evaluated once at the 21 Kronrod nodes of
    [a, b].  Returns the K21 value and the error estimate |K21 - G10|,
    with G10 read from the same values at the 10 Gauss nodes."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fx = [g(c + h * x) for x in _XK]
    kronrod = h * math.fsum(w * f for w, f in zip(_WK, fx))
    gauss = h * math.fsum(w * f for w, f in zip(_WG, fx[1::2]))
    return kronrod, abs(kronrod - gauss)


def _integrate_mesh(g, bounds, loc_tol):
    """Adaptive bisection of the panels between consecutive bounds.

    A panel is accepted when its error is within ``loc_tol`` (halved at
    each bisection) or at the level of rounding; otherwise it is bisected
    while the integral has fewer than _MAX_LEAVES leaves.  Returns (value,
    error, leaves, whether a panel was kept unsplit for want of budget).
    """
    values, errors = [], []
    short = False
    leaves = len(bounds) - 1
    # a stack, so that the panels come off it from left to right
    stack = [(a, b, loc_tol) for a, b in reversed(list(zip(bounds[:-1], bounds[1:])))]
    while stack:
        a, b, tol = stack.pop()
        value, err = _integrate_panel(g, a, b)
        done = err <= tol or err <= 4e-16 * abs(value) or (b - a) <= 1e-300
        if done or leaves >= _MAX_LEAVES:
            values.append(value)
            errors.append(err)
            short = short or not done
        else:
            leaves += 1
            m = 0.5 * (a + b)
            stack += [(m, b, 0.5 * tol), (a, m, 0.5 * tol)]
    return math.fsum(values), math.fsum(errors), len(values), short


def _tail_blocks(log_survival, n, y0):
    """Upper bounds b_k * survival(b_k)^n for dyadic blocks [b_k, 2 b_k],
    ending with the first bound that underflows to 0."""
    out = []
    b = y0
    for _ in range(_MAX_TAIL_BLOCKS):
        arg = n * log_survival(b) + math.log(b)
        if arg <= _EXP_UNDERFLOW:
            out.append(0.0)
            break
        out.append(math.exp(arg))
        b *= 2.0
    return out


def _truncation(dist: Distribution, n: int, tail_budget: float):
    """Pick y* and a certified bound for the discarded tail.

    Returns (y_star, tail_bound) or raises NonConvergentError when no
    truncation point admits a bound below the budget.
    """
    log_s = dist.log_survival
    # first point where the integrand itself has dropped below the budget,
    # discounted by the 1/(1+y) factor that keeps the block sum honest
    y0 = 1.0
    target = math.log(tail_budget)
    for _ in range(200):
        if n * log_s(y0) <= target - math.log1p(y0):
            break
        y0 *= 2.0
    blocks = _tail_blocks(log_s, n, y0)
    # certify the remainder past the last block by the observed decay ratio
    last = blocks[-1]
    if last == 0.0:
        remainder = 0.0
    else:
        prev = blocks[-2]  # no block underflowed, so all _MAX_TAIL_BLOCKS are here
        ratio = last / prev if prev > 0.0 else 1.0
        if ratio > _TAIL_RATIO_CAP:
            raise NonConvergentError(
                f"tail of survival^{n} for {dist.name} shows no decay; "
                "the expected minimum is divergent or nearly so"
            )
        remainder = last * ratio / (1.0 - ratio)
    # slide y* outward until the blocks kept beyond it fit the budget
    suffix = remainder
    cut = len(blocks)
    for k in range(len(blocks) - 1, -1, -1):
        if suffix + blocks[k] > tail_budget:
            break
        suffix += blocks[k]
        cut = k
    if cut == len(blocks):
        raise NonConvergentError(
            f"tail bound for {dist.name} with n={n} cannot be driven below "
            f"{tail_budget:g}; the expected minimum may be infinite"
        )
    return y0 * 2.0**cut, suffix


def _mesh(dist: Distribution, n: int, y_star: float):
    """Panel boundaries from 0 to y*, each panel 4 times as wide as the one
    before it.

    The integrand's mass sits within O(1/n) of the origin when the density
    there is positive, so the first panel width tracks that scale.
    """
    f0 = dist.density_at_zero
    if f0 is not None and math.isfinite(f0) and f0 > 0.0:
        w0 = min(1.0, 4.0 / (n * f0 + 1.0))
    else:
        w0 = 1.0 / math.sqrt(n)
    w0 = min(w0, y_star)
    bounds = [0.0, w0]
    while bounds[-1] < y_star:
        bounds.append(min(bounds[-1] * 4.0, y_star))
    return bounds


def survival_power_integral(dist: Distribution, n: int, tol: float) -> QuadratureResult:
    """int_0^y* exp(n log_survival(y)) dy plus a certified tail bound.

    ``tol`` is an absolute error target on the integral value (the value
    itself shrinks like 1/n, so relative targets are unstable).
    """
    _check_int("n", n)
    if not (isinstance(tol, float) and 0.0 < tol <= 1e-2):
        raise InvalidToleranceError(f"tol must be in (0, 1e-2], got {tol!r}")

    log_s = dist.log_survival

    def integrand(y: float) -> float:
        arg = n * log_s(y)
        return math.exp(arg) if arg > _EXP_UNDERFLOW else 0.0

    if math.isfinite(dist.support_upper):
        y_star, tail_bound = dist.support_upper, 0.0
    else:
        y_star, tail_bound = _truncation(dist, n, 0.5 * tol)

    bounds = _mesh(dist, n, y_star)
    # equal per-panel budget: on a geometric mesh a width-proportional
    # split would starve the panels near 0 where the mass sits
    loc_tol = 0.5 * tol / (len(bounds) - 1)
    value, panel_error, panels, short = _integrate_mesh(integrand, bounds, loc_tol)
    value = max(value, 0.0)
    abs_error_bound = tail_bound + panel_error
    return QuadratureResult(
        value=value,
        abs_error_bound=abs_error_bound,
        truncation_point=y_star,
        panels=panels,
        converged=abs_error_bound <= tol and not short,
    )
