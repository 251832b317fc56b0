"""Log-space evaluation of int_0^inf survival(y)^n dy.

The integrand is only ever formed as exp(n * log_survival(y)), so large n
never underflows prematurely; where it does, math.exp returns 0.0, and
that is the one test of underflow.

One geometric grid carries both the panels and the tail bound.  Its
boundaries b_k = w0 * 4^k start from a first width w0 on the scale where
the mass sits: 1/(n f(0)) when the density at 0 is positive, which leaves
the integrand near e^-4 there, else 1/sqrt(n).  Without a positive f(0)
that guess can lie far below the mass, as for the power law with k > 2,
whose first panels then hold a flat integrand: w0 moves up by 4 while n log
S at 4 w0, within the support, lies in [_FIRST_PANEL_LOG_CEILING, 0], and
the probe where it stops, a NaN or positive one too, is the next boundary,
checked as every boundary is and not evaluated again.  Either first width
moves down by 4 while n log S there is below _FIRST_PANEL_LOG_FLOOR: the
G10/K21 error estimate of a first panel far wider than the mass can
understate it.  It stops at _MIN_WIDTH; if the integrand has underflowed
even there, the panel [0, b_0] may miss the mass, and b_0 joins the tail
bound.
Survival is monotone, so the block [b, 4b] contributes at most
3b * survival(b)^n.

Where the law has a closed-form remainder (Distribution.log_mean_residual:
the exponential, uniform01 and the heavy tail), the walk forms the
remainder beyond each boundary b from the n log S(b) it has evaluated,
adds it to the value, and counts only its rounding as the tail.  exp
magnifies the rounding of its argument, so that is a few eps times
|n log S(b)| plus a few, and one subnormal step where the remainder is
subnormal.

Every other law must have a log-concave survival with S(0) = 1, so that
n log S is concave and 0 at 0.  Its chord through the last two points
the walk has evaluated, (p, n log S(p)) and (b, n log S(b)), starting
from (0, 0), then lies above n log S beyond b: with s the chord's rate of
fall, int_y^inf S^n <= S(b)^n e^(-s (y - b)) / s for every y >= b.  Each
value is widened by its rounding, a few eps of its magnitude, and so is
each term of the exponent.  One test checks the premise on points that
are evaluated anyway: each new boundary against the chord before it, and
the K21 value nearest the right end of a panel beyond the last chord's b,
whose log also carries the eps/2 by which exp rounds.  A point above the
chord, extended past its b, by more than the rounding of the three values
raises HypothesisViolatedError.  A bend that neither shows goes
unchecked, as does a walk whose y* is the boundary b itself.

The grid is walked once.  A law without a remainder stops at the least
y* >= b whose chord tail fits half the tolerance, but not below 1 unless
the tail is below _NEGLIGIBLE_TAIL of b_0 S(b_0)^n, which bounds the value
from below since S is monotone.  That y* is solved for in closed form.
If it lies within the block [b, 4b], the panel [b, y*] ends the grid, and
since that panel is added anyway, y* moves on within the block to where
the tail is negligible; otherwise the walk goes on to 4b.  At large n that
ends the walk a few boundaries past the mass, not where the integrand
underflows; the clause y* >= 1 keeps a value below the absolute tolerance
accurate relative to itself.  A law with a remainder skips both clauses,
since the rounding of an exact remainder is already relative to the
value: it stops at the first boundary where the remainder's rounding
fits, which is often b_0 itself.  Either walk also stops where the block
and the integrand both underflow.  The point where the walk stops is the
truncation point y*, which a bounded support clips, with no tail beyond
it.  A walk that reaches the largest floats stops there with its tail,
which then misses the tolerance, or, where its last chord does not fall,
raises NonConvergentError.  The walk decides no remainder divergent: a
law's log_mean_residual raises NonConvergentError, or returns inf, where
its remainder diverges (the heavy tail's raises for n * alpha <= 1.074).

The panels between consecutive bounds up to y* are integrated by one
ladder of nested rules, the rows of _RULES: G10, K21 and K43, that is
QUADPACK's 10/21-point Gauss-Kronrod pair (qk21) and Patterson's 22
further nodes, as QUADPACK's qng adds them.  A panel walks the rows in
turn.  Each row evaluates only the nodes that the values in hand lack and
takes its own error estimate, and the walk stops at the first estimate
that fits the panel's tolerance.  It starts at G10 on the panel at 0 of a
law with a finite positive f(0), a single scale
(Distribution.single_scale) and a finite resolution cap (below), and at
K21 everywhere else.

G10's estimate is that of its null rules (Berntsen and Espelid, ACM TOMS
17, 1991).  The first width sizes the panel at 0 so that the integrand
falls only to about e^-4 across it, and that panel holds most of the
value.  There G10's 10 values alone give the discrete Legendre
coefficients c_4 ... c_9.  Where e1 = |(c_9, c_8)| is at most
_NULL_RATIO of e2 = |(c_7, c_6)|, and e1/e2 is at most e2/e3, e3 =
|(c_5, c_4)|, so that the fall does not slow, its rate estimates G10's
own error.  Values at one node alone fall too slowly for the first test,
as a part that falls off far faster than the rest, seen only by G10's
outermost node, gives them; the floor that such a part puts under the
slow part's falling coefficients fails the second.  A faster part that
stays below the slow part's own coefficients shows in neither, which is
why a law must declare a single scale.  Nor does the estimate hold at a
cusp: where f(0) is 0 or infinite, the coefficients fall only as a power
of their index, and their rate understates the error (tried where f(0) =
inf, S = 1 - sqrt(y) at n = 1 came back 5.2x over its bound).

K21's and K43's estimate is the difference d from the rule before,
|K21 - G10| or |K43 - K21|, one exact sum, so it is not a whole number of
ulps of the panel's value.  That is the error of the rule before, mostly
far above the rule's own.  So a row whose d misses the tolerance judges
it again by QUADPACK's scaled estimate resasc min(1, (200 d / resasc)^1.5),
where resasc is K21's integral of |f - its mean| over the panel.  The
scale is formed once, on K21's miss, from its 21 values: a panel whose d
fits keeps d as its error, bit for bit, and a sum over 21 values on every
panel would cost more time than the evaluations it saves.  At a cusp
y^alpha, alpha > 1, as at 0 where f(0) = 0, d need not lie above the
rule's own error: each rule's error falls only as its nodes^-(2 alpha +
2), and where K21's crosses zero (near alpha = 2.022), |K43 - K21|
understates K43's.  There K43's estimate is floored at _CUSP_RATIO
|K21 - G10|, unscaled, above their largest ratio on x^alpha, 3.0e-4 as
alpha -> 1.

A panel that misses the tolerance at K43 too is bisected, and each half
walks the ladder again from its start, unless the panels would then exceed
_MAX_LEAVES: an integral has at most the larger of that and the grid's
count, at most 1023, so every call does bounded work.  A panel at 0 splits
at a quarter instead, as the grid does: a cusp y^k at 0, as in the power
law, gives a panel error that falls as its width^(k+1), so each split of
[0, b] cuts it by 4^(k+1), not 2^(k+1).  A panel that ends at the end of a
bounded support is not accepted while the integrand at its node nearest
that end (G10's where the walk stopped there, else K21's) is above e^-1,
and splits a quarter of its width from that end: the integrand falls to 0
there between that node and the end, unseen by every rule, as for
power_law(k) with k >= 1e4, whose cliff lies within O(1/k) of 1.

The panels spend one error budget, what the tail leaves of the tolerance,
from left to right.  Each pending panel holds a share of it, 1 for a panel
of the grid, halved at each split; the panel taken next may spend its
share of what is left, and once accepted charges the lesser of its error
and that tolerance, so that what it leaves unused passes on to the panels
after it.  No panel's tolerance exceeds _RESOLUTION of b_0 S(b_0)^n, the
lower bound on the value, where that is a normal float: at the cliff
e^(-n y^k) of the power law, K21 and G10 err alike and their difference
can understate the error, so an estimate is trusted only once it is small
beside the value.  The result is the MinResult that every route of minima
hands on: its value is the panels' sum plus any exact remainder, and it
has converged exactly when its error bound, the tail plus the panel
errors, is within the tolerance.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

from .distributions import Distribution, _smooth_at_zero
from .errors import HypothesisViolatedError, NonConvergentError, _check_int, _check_tol

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
_XG = _XK[1::2]


def _orthonormal_legendre(j, x):
    """sqrt(j + 1/2) P_j(x), P_j by its three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(1, j):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return math.sqrt(j + 0.5) * p1


# G10's null rules (Berntsen and Espelid, ACM TOMS 17, 1991), j = 4 ... 9, one
# row each: the Gauss weights times the orthonormal Legendre polynomial p_j at
# the five positive Gauss nodes, largest first.  Summed with the values they
# give the discrete Legendre coefficients c_j, and p_j(-x) = (-1)^j p_j(x)
# weighs the values at the negative nodes
_NULL_HALF = tuple(tuple(w * _orthonormal_legendre(j, x) for w, x in zip(_WG_HALF, _XG)) for j in range(4, 10))
# Patterson's optimal addition of 22 nodes to qk21 (Math. Comp. 22, 1968), as
# in QUADPACK's qng: the new nodes, largest first, and the 43 weights of K43
# in the order of its nodes, largest first, where the 21 Kronrod nodes are
# those at odd indices
_XP_HALF = (
    0.999333360901932081394099323919911,
    0.987433402908088869795961478381209,
    0.954807934814266299257919200290473,
    0.900148695748328293625099494069092,
    0.825198314983114150847066732588520,
    0.732148388989304982612354848755461,
    0.622847970537725238641159120344323,
    0.499479574071056499952214885499755,
    0.364901661346580768043989548502644,
    0.222254919776601296498260928066212,
    0.074650617461383322043914435796506,
)
_W43_HALF = (
    0.001844477640212414100389106552965,
    0.005768556059769796184184327908655,
    0.010798689585891651740465406741293,
    0.016296734289666564924281974617663,
    0.021895363867795428102523123075149,
    0.027371890593248842081276069289151,
    0.032597463975345689443882222526137,
    0.037522876120869501461613795898115,
    0.042163137935191811847627924327955,
    0.046560826910428830743339154433824,
    0.050741939600184577780189020092084,
    0.054694902058255442147212685465005,
    0.058379395542619248375475369330206,
    0.061744995201442564496240336030883,
    0.064746404951445885544689259517511,
    0.067355414609478086075553166302174,
    0.069566197912356484528633315038405,
    0.071387267268693397768559114425516,
    0.072824441471833208150939535192842,
    0.073870199632393953432140695251367,
    0.074507751014175118273571813842889,
    0.074722147517403005594425168280423,
)
_XP = _XP_HALF + tuple(-x for x in _XP_HALF[::-1])
_W43 = _W43_HALF + _W43_HALF[-2::-1]
# The nested rules G10, K21 and K43, one row each: a rule's nodes, its
# weights and those of its difference from the rule before, each in the
# order of its values, those of the rules before it first: G10's nodes,
# then Kronrod's 11, then Patterson's 22.  G10 has no rule before it: its
# null rules estimate its error
_W21 = _WK[1::2] + _WK[0::2]
_W43_AT_K21 = _W43[3::4] + _W43[1::4]
_RULES = (
    (_XG, _WG, None),
    (_XG + _XK[0::2], _W21, tuple(w - g for w, g in zip(_W21, _WG)) + _WK[0::2]),
    (_XG + _XK[0::2] + _XP, _W43_AT_K21 + _W43[0::2],
     tuple(w - k for w, k in zip(_W43_AT_K21, _W21)) + _W43[0::2]),
)
# the rows a panel walks where it does not start at G10
_FROM_K21 = _RULES[1:]

# the rounding of arg = n log S(y), per unit of |arg|, and of an exact
# remainder exp(arg + log_mean_residual), per unit of |arg| +
# |log_mean_residual| + log(n) + 4, plus one subnormal step, the rounding of
# exp where the remainder is subnormal
_ROUNDING = 8.0 * sys.float_info.epsilon
_SUBNORMAL_STEP = math.ulp(0.0)
# leaves (accepted panels) past which no panel splits: an integral has at
# most the larger of this and the grid's count, at most 1023 from 2^-1022 to
# the largest floats; each panel tried costs at most 43 evaluations, and at
# most twice as many are tried as are accepted.  The integrals of the
# benchmark's dist-grid workload need at most 4 (seeds 1-10, rounds 0-2; the
# power law's), the half-normal's at most 3, and those of the laws with an
# exact remainder at most 2
_MAX_LEAVES = 500
# the least first width: positive even when n * f(0) overflows
_MIN_WIDTH = 2.0**-1022
# a first panel far wider than the mass lets G10/K21 understate its error
_FIRST_PANEL_LOG_FLOOR = -8.0
# a law without a positive f(0) widens its first panel while the integrand
# stays above e^-1 at 4 b_0: panels on which it is that flat waste their
# evaluations
_FIRST_PANEL_LOG_CEILING = -1.0
# no panel's tolerance exceeds this much of b_0 S(b_0)^n, a lower bound on
# the value: a panel error estimate is trusted only once it is small beside
# the value, which an estimate at the cliff e^(-n y^k) can otherwise not be
_RESOLUTION = 2.0**-27
# a tail this far below a lower bound on the value cannot move its rounding
_NEGLIGIBLE_TAIL = 2.0**-60
# K43's error on a cusp x^alpha at 0, alpha > 1, per unit of |K21 - G10|
_CUSP_RATIO = 3.1e-4
# a panel error within this much of |value| is at the level of rounding,
# which splitting the panel cannot lower
_PANEL_ROUNDING = 4e-16
# the safety factor K of G10's null-rule estimate K e1 (e1/e2)^5.5
_NULL_FACTOR = 2.0
# the estimate stands only where e1 <= _NULL_RATIO e2: values at one node
# alone, as of a part of the integrand that only G10's outermost node sees,
# give e1/e2 = 0.49, and the first panels of the built-in laws about 0.02
_NULL_RATIO = 0.25
# a panel that ends at the support's end is split while the integrand at
# its node nearest that end is above this: it drops to 0 between them
_END_CEILING = math.exp(-1.0)


@dataclass(frozen=True)
class MinResult:
    n: int
    value: float
    method: str  # "quadrature" or "asymptotic"
    error_bound: Optional[float] = None  # this and the rest None when asymptotic
    converged: Optional[bool] = None  # error_bound <= tol
    truncation_point: Optional[float] = None  # y*, where the panels end
    panels: Optional[int] = None  # accepted panels, each G10, K21 or K43


def _rule(dist, n, a, b, nodes, weights, diffs, fx):
    """One row of _RULES on [a, b], evaluated at those of its nodes that the
    values fx in hand, of the rules before it, lack: the integrand
    exp(n * dist.log_survival(y)), inline rather than through a closure that
    would cost a call per node.  Returns the rule's value, its error
    estimate and all the values.  Raises ValueError where the value, or exp
    at a node, is NaN, inf or overflows: log_survival is NaN, or above 0,
    there.  A row with difference weights estimates |this rule - the
    rule before|, one exact sum.  G10's row has none, and its estimate is
    that of its null rules: with c_j = h sum_i w_i p_j(x_i) f_i, h the
    half-width, e1 = |(c_9, c_8)|, e2 = |(c_7, c_6)| and e3 = |(c_5, c_4)|,
    it is _NULL_FACTOR e1 (e1/e2)^5.5 where the coefficients fall and do
    not slow, e2 > 0, e1 <= _NULL_RATIO e2 and e1/e2 <= e2/e3, floored at
    eps/2 of the value, and inf where they do not.  The nodes pair as x and
    -x, so each c_j sums five products, of its null rule with the values at
    each pair, added for even j and subtracted for odd j."""
    h, c, log_s = 0.5 * (b - a), 0.5 * (a + b), dist.log_survival
    try:
        fx = fx + [math.exp(n * log_s(c + h * x)) for x in nodes[len(fx):]]
        value = h * math.fsum(map(operator.mul, weights, fx))
    except OverflowError:  # exp(n log S) at a node, or their sum: S is above 1
        value = math.inf
    if not value < math.inf:  # a NaN, or an infinite log_survival at a node
        what = "nan" if math.isnan(value) else "above 0"
        raise ValueError(f"{dist.name}: log_survival is {what} on the panel [{a!r}, {b!r}]")
    if diffs is not None:
        return value, abs(h * math.fsum(map(operator.mul, diffs, fx))), fx
    mirror = fx[:4:-1]
    even, odd = list(map(operator.add, fx, mirror)), list(map(operator.sub, fx, mirror))
    c4, c6, c8 = [math.fsum(map(operator.mul, row, even)) for row in _NULL_HALF[0::2]]
    c5, c7, c9 = [math.fsum(map(operator.mul, row, odd)) for row in _NULL_HALF[1::2]]
    e1, e2, e3 = math.hypot(c9, c8), math.hypot(c7, c6), math.hypot(c5, c4)
    if not (e2 > 0.0 and e1 <= _NULL_RATIO * e2 and e1 * e3 <= e2 * e2):
        return value, math.inf, fx
    return value, max(h * _NULL_FACTOR * e1 * (e1 / e2) ** 5.5, 0.5 * sys.float_info.epsilon * abs(value)), fx


def _fits(err, tol, value):
    """Whether a panel error is within its tolerance or at the level of
    rounding of the panel's value."""
    return err <= tol or err <= _PANEL_ROUNDING * abs(value)


def _scaled(err, resasc):
    """QUADPACK's panel error (qk21, qng) from the difference ``err`` of two
    nested rules and ``resasc``, the panel's integral of |f - its mean| by
    K21: resasc min(1, (200 err / resasc)^1.5)."""
    if resasc == 0.0:
        return err
    return resasc * min(1.0, 200.0 * err / resasc) ** 1.5


def _integrate_mesh(dist, n, bounds, budget, cap, chord):
    """Adaptive bisection of the panels between consecutive bounds of the
    integral of exp(n * dist.log_survival(y)).

    The panels spend one error ``budget`` from left to right.  Each pending
    panel holds a share of it, 1 for a panel between bounds, halved at each
    bisection, and the panel taken next gets its share of what is left, or
    all of it if it is the last, but never more than ``cap``.  A panel is
    accepted when its error estimate fits, within that tolerance or at the
    level of rounding, and charges the lesser of the two to the budget, so
    that what it leaves unused passes on to the panels after it.  Each
    panel walks the ladder of _RULES that the module docstring describes,
    from G10 only on the panel at 0 of a ``single_scale`` law with a finite
    positive f(0), and only where ``cap`` is finite.  A panel that ends at
    the support's end is not accepted while the integrand at its node
    nearest that end is above e^-1.  A panel that is not accepted is accepted
    anyway when splitting it would take the accepted and pending panels past
    _MAX_LEAVES; otherwise it is split in two: a quarter of its width from
    the support's end for such a cliff, else at its midpoint or, for a panel
    at 0, at a quarter.  A panel beyond the b of ``chord``, where not None,
    checks it with the K21 value at its node nearest its right end, a normal
    float, where a bend shows most.  Returns (value, error, leaves)."""
    cusp = dist.density_at_zero == 0.0
    gauss_first = dist.single_scale and _smooth_at_zero(dist) and cap < math.inf
    values, errors = [], []
    stack = [(a, b, 1.0) for a, b in zip(bounds, bounds[1:])]
    stack.reverse()  # left to right: a budget that runs out is spent near 0
    left, pending = budget, float(len(stack))  # the budget left, and the pending panels' shares
    while stack:
        a, b, share = stack.pop()
        # the last pending panel takes all that is left, however the sum of
        # the shares has rounded
        tol = min(cap, left * share / pending if stack else left)
        fx, resasc = [], None
        for nodes, weights, diffs in _RULES if gauss_first and a == 0.0 else _FROM_K21:
            value, err, fx = _rule(dist, n, a, b, nodes, weights, diffs, fx)
            if chord is not None and len(fx) == 21 and a >= chord[2] and fx[10] >= sys.float_info.min:
                # K21's value at its node nearest b; the log of a rounded exp
                # is off by up to eps/2 even where the exp rounds to 1 and
                # the log to 0
                _check_chord(dist.name, chord, 0.5 * (a + b) + 0.5 * (b - a) * _XK[0], math.log(fx[10]), 1.0)
            if diffs is not None and not _fits(err, tol, value):
                if resasc is None:
                    # QUADPACK's scale, formed only on K21's miss, from its
                    # values: on every panel it costs more time than it saves
                    coarse, mean = err, value / (b - a)
                    resasc = 0.5 * (b - a) * math.fsum(w * abs(f - mean) for w, f in zip(_W21, fx))
                err = _scaled(err, resasc)
            if cusp and a == 0.0 and len(fx) == 43:
                # K43's floor at a cusp at 0, under whichever estimate stood
                err = max(err, _CUSP_RATIO * coarse)
            if _fits(err, tol, value):
                break
        # the integrand drops to 0 between the node nearest the support's
        # end and that end, unseen, as at 1 - O(1/k) for power_law(k): G10's
        # node where the panel stopped there, else K21's
        cliff = b == dist.support_upper and fx[0 if diffs is None else 10] > _END_CEILING
        if (_fits(err, tol, value) and not cliff) or len(values) + len(stack) + 2 > _MAX_LEAVES:
            values.append(value)
            errors.append(err)
            left -= min(err, tol)
            pending -= share
        else:
            # b/4 carries the grid's ratio on toward 0, where a cusp y^k
            # makes the panel error fall as b^(k+1); a cliff is split toward
            # the end it lies at
            m = b - 0.25 * (b - a) if cliff else 0.25 * b if a == 0.0 else 0.5 * (a + b)
            stack += [(m, b, 0.5 * share), (a, m, 0.5 * share)]
    return math.fsum(values), math.fsum(errors), len(values)


def _check_chord(name, chord, y, v, slack):
    """The premise of the chord tail: a concave n log S lies below its chord
    through (p, p_arg) and (b, arg) = ``chord``, extended past b.  Raises
    HypothesisViolatedError where the point (y, v), y >= b, lies above it by
    more than the rounding of the three values, that of v being _ROUNDING
    times |v| + ``slack``."""
    p, p_arg, b, arg = chord
    t = (y - b) / (b - p)
    if v - arg - (arg - p_arg) * t > _ROUNDING * (abs(v) + slack + (1.0 + t) * abs(arg) + t * abs(p_arg)):
        raise HypothesisViolatedError(
            "log-concave",
            f"{name}: n log survival lies above its chord past {b:g}, "
            "so no chord bounds its tail; give the law a log_mean_residual",
        )


def _chord(p, p_arg, b, arg):
    """The chord of n log S through (p, p_arg) and (b, arg), each value
    widened by its rounding.  Returns (drop, log_tail): drop is the least
    fall from p to b that the two values allow; where it is positive, a
    log-concave S has n log S(y) <= arg + its rounding - drop (y - b) /
    (b - p) at y >= b, so that
    int_y^inf S^n <= exp(log_tail - drop (y - b) / (b - p)).  The fall is
    kept over its width, not as a rate per unit, which overflows where b is
    near _MIN_WIDTH."""
    spread = _ROUNDING * (abs(p_arg) + abs(arg))
    drop = p_arg - arg - spread
    if drop <= 0.0:
        return drop, math.inf
    log_drop, log_width = math.log(drop), math.log(b - p)
    # exp magnifies the rounding of its argument: that of arg, and that of
    # each term of the exponent log_tail - drop (y - b) / (b - p), y <= 4b
    log_tail = arg - log_drop + log_width + spread + _ROUNDING * (abs(arg) + abs(log_drop) + abs(log_width))
    return drop, log_tail


def _grid(dist: Distribution, n: int, budget: float):
    """Panel bounds 0, b_0, ..., y*, the tail, the exact remainder beyond
    y* (0.0 for a law without one), b_0 S(b_0)^n, a lower bound on the
    value, and the chord (p, n log S(p), b, n log S(b)) before the panel
    [b, y*], which _integrate_mesh checks on that panel (None where no
    chord stands before such a panel).  The bounds below y* are the
    boundaries b_k = w0 * 4^k; for a law without a remainder y* may lie
    inside the block after the last of them.  The tail is, by the rules of
    the module docstring, a certified bound on the integral the panels
    cannot see beyond y*, or the rounding of the remainder, plus the mass
    below b_0 if the integrand has underflowed there.  A law without a
    remainder stops at the least y* that its chord tail lets fit ``budget``
    with y* >= 1 or a tail negligible beside b_0 S(b_0)^n, once that y*
    lies within the block ahead, or once the block and the integrand
    underflow.  A law with a remainder stops instead at the first boundary
    where the remainder's rounding fits ``budget``, or at the largest
    floats.  Raises HypothesisViolatedError where a boundary of a law
    without a remainder lies above the chord before it, ValueError where
    log_survival is NaN or above 0 at a boundary or log_mean_residual is
    NaN, and NonConvergentError where the remainder is infinite or a chord
    tail reaches the largest floats."""
    positive = _smooth_at_zero(dist)
    b = max(min(1.0, 4.0 / (n * dist.density_at_zero + 1.0)) if positive else 1.0 / math.sqrt(n), _MIN_WIDTH)
    arg = n * dist.log_survival(b)
    ahead = None  # n log S(4b), where the walk up has probed it
    top = min(dist.support_upper, sys.float_info.max)
    while not positive and arg >= _FIRST_PANEL_LOG_CEILING and 4.0 * b <= top:
        ahead = n * dist.log_survival(4.0 * b)
        if not _FIRST_PANEL_LOG_CEILING <= ahead <= 0.0:
            break
        b, arg, ahead = 4.0 * b, ahead, None
    while arg < _FIRST_PANEL_LOG_FLOOR and b > _MIN_WIDTH:
        b = max(0.25 * b, _MIN_WIDTH)
        arg = n * dist.log_survival(b)
    bounds = [0.0, b]
    # S is monotone, so b_0 S(b_0)^n <= the integral over [0, b_0] <= the
    # value; formed once the walk has checked n log S(b_0) <= 0
    log_least = math.log(b) + arg
    log_negligible = math.log(_NEGLIGIBLE_TAIL) + math.log(b) + arg
    log_budget = math.log(budget) if budget > 0.0 else -math.inf
    prev_arg = 0.0  # n log S at the boundary before b
    chord = premise = None  # the chord before b, and the one the panel [b, y*] checks
    while True:
        if not arg <= 0.0:  # a NaN, or a survival above 1
            raise ValueError(f"{dist.name}: log_survival is {dist.log_survival(b)!r} at {b!r}")
        last = b > sys.float_info.max / 4.0
        remainder = 0.0
        if math.exp(arg + math.log(3.0 * b)) == 0.0 and math.exp(arg) == 0.0:
            # the block bound 3b S(b)^n >= the integral over [b, 4b] and the
            # integrand both underflow; at b_0 (only at _MIN_WIDTH) the panel
            # there may miss the mass of [0, b_0], which S^n <= 1 bounds by b_0
            tail = b if b == bounds[1] else 0.0
            break
        if dist.log_mean_residual is not None:
            # the exact remainder beyond b, which stands once its rounding fits
            log_residual = dist.log_mean_residual(n, b)
            try:
                remainder = math.exp(arg + log_residual)
            except OverflowError:
                remainder = math.inf
            if math.isnan(remainder):
                raise ValueError(f"{dist.name}: log_mean_residual is {log_residual!r} at {b!r}")
            if remainder == math.inf:  # the law states that its remainder diverges
                raise NonConvergentError(f"the remainder of survival^{n} for {dist.name} beyond {b!r} is infinite")
            tail = remainder * _ROUNDING * (abs(arg) + abs(log_residual) + math.log(n) + 4.0) + _SUBNORMAL_STEP
            if tail <= budget or last:
                break
        else:
            # the chord from the boundary before b, or from (0, 0) at b_0,
            # once (b, arg) is checked against the chord before it
            if chord is not None:
                _check_chord(dist.name, chord, b, arg, 0.0)
            p = bounds[-2]
            chord = (p, prev_arg, b, arg)
            drop, log_tail = _chord(*chord)
            if drop > 0.0:
                def reach(log_target):
                    # the least y >= b where the chord tail is at most e^log_target
                    return b + max(0.0, (log_tail - log_target) / drop) * (b - p)

                y = b if last else max(reach(log_budget), min(reach(log_negligible), max(b, 1.0)))
                y = min(y, dist.support_upper)  # the tail is 0 from there on
                if y <= 4.0 * b:
                    if y > b:
                        # the panel [b, y*] is added anyway: carry y* on
                        # within the block to a negligible tail
                        y = min(4.0 * b, max(y, reach(log_negligible)))
                        bounds.append(y)
                        premise = chord
                    tail = 0.0 if y >= dist.support_upper else math.exp(log_tail - drop * ((y - b) / (b - p)))
                    break
        if last:
            raise NonConvergentError(f"tail of survival^{n} for {dist.name} cannot be bounded; "
                                     "the expected minimum is divergent or nearly so")
        prev_arg, b = arg, 4.0 * b
        bounds.append(b)
        arg = n * dist.log_survival(b) if ahead is None else ahead
        ahead = None
    bounds[-1] = min(bounds[-1], dist.support_upper)
    return bounds, tail, remainder, math.exp(log_least), premise


def survival_power_integral(dist: Distribution, n: int, tol: float) -> MinResult:
    """E[min of n iid draws] = int_0^inf exp(n log_survival(y)) dy: the
    panels up to y* (truncation_point) plus the exact remainder beyond it
    where the law has one, else a certified tail bound.

    ``tol`` is an absolute error target on the integral value (the value
    itself shrinks like 1/n, so relative targets are unstable).
    """
    _check_int("n", n)
    _check_tol(tol)

    bounds, tail_bound, remainder, least, chord = _grid(dist, n, 0.5 * tol)
    # one budget, what the tail leaves of tol, spent from left to right in
    # equal shares per panel of the grid, since shares in proportion to
    # width would starve the panels near 0 where the mass sits; a subnormal
    # lower bound on the value has no resolution to cap them with
    budget = max(tol - tail_bound, 0.0)
    cap = _RESOLUTION * least if least >= sys.float_info.min else math.inf
    value, panel_error, panels = _integrate_mesh(dist, n, bounds, budget, cap, chord)
    error_bound = tail_bound + panel_error
    return MinResult(n, value + remainder, "quadrature", error_bound, error_bound <= tol, bounds[-1], panels)
