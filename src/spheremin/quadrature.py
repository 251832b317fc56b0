"""Log-space evaluation of int_0^inf survival(y)^n dy.

The integrand is only ever formed as exp(n * log_survival(y)), so large n
never underflows prematurely.  For unbounded support the tail beyond the
truncation point is bounded by summing dyadic blocks [b, 2b]: survival is
monotone, so each block contributes at most b * survival(b)^n, and the
observed block-to-block decay ratio bounds the remainder geometrically.
Heavy tails whose blocks never decay (a divergent expectation) surface as
NonConvergentError instead of a silently wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Distribution
from .errors import InvalidToleranceError, NonConvergentError, _check_int

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL = list(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))

_MAX_TAIL_BLOCKS = 600
_TAIL_RATIO_CAP = 0.95
_MAX_DEPTH = 48
_EXP_UNDERFLOW = -745.0


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_bound: float
    truncation_point: float
    panels: int
    converged: bool


def _gauss_legendre(g: Callable[[float], float], a: float, b: float) -> float:
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    return h * math.fsum(w * g(c + h * x) for x, w in _GL)


def _integrate_panel(g, a, b, loc_tol, depth):
    """Adaptive 20-point Gauss-Legendre with halving-based error estimate."""
    m = 0.5 * (a + b)
    coarse = _gauss_legendre(g, a, b)
    fine = _gauss_legendre(g, a, m) + _gauss_legendre(g, m, b)
    err = abs(fine - coarse)
    if (
        err <= loc_tol
        or err <= 4e-16 * abs(fine)
        or depth >= _MAX_DEPTH
        or (b - a) <= 1e-300
    ):
        return fine, err, 1
    lv, le, lp = _integrate_panel(g, a, m, 0.5 * loc_tol, depth + 1)
    rv, re, rp = _integrate_panel(g, m, b, 0.5 * loc_tol, depth + 1)
    return lv + rv, le + re, lp + rp


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
    """Geometrically graded panel boundaries from 0 to y*.

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
        bounds.append(min(bounds[-1] * 2.0, y_star))
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
    values, errors, panels = [], [], 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        v, e, p = _integrate_panel(integrand, a, b, loc_tol, 0)
        values.append(v)
        errors.append(e)
        panels += p

    value = max(math.fsum(values), 0.0)
    abs_error_bound = tail_bound + math.fsum(errors)
    return QuadratureResult(
        value=value,
        abs_error_bound=abs_error_bound,
        truncation_point=y_star,
        panels=panels,
        converged=abs_error_bound <= tol,
    )
