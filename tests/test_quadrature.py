"""Survival-power quadrature against closed forms and frozen oracles.

Closed forms: exponential(rate) gives 1/(n*rate); uniform01 gives
1/(n+1); heavy_tail(alpha) gives 1/(n*alpha - 1) when n*alpha > 1.
Half-normal n=2 is the mpmath oracle for the integral of erfc^2.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spheremin.distributions import Distribution, exponential, half_normal, heavy_tail, power_law, uniform01
from spheremin.errors import HypothesisViolatedError, InvalidToleranceError, NonConvergentError, SphereMinError
from spheremin import distributions, quadrature
from spheremin.minima import asymptotic_min, emin, expected_min, nmin
from spheremin.quadrature import _NULL_HALF, _RULES, _W43, _WG, _WK, _XG, _XK, _XP, _chord, survival_power_integral
from spheremin.special import gamma_ratio

INV_SQRT_PI = 0.5641895835477563
ERFC_SQUARED_INTEGRAL = 0.3304946062926472  # mpmath, (2-sqrt(2))/sqrt(pi)
EPS = 2.0**-52

# int_0^inf erfc(y)^n dy at 40 digits, for n = 1..200 and n = 10^k, k <= 6
# (the benchmark's oracle cache; rebuilt by bench/oracle.py --rebuild)
_CACHE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "oracle_cache.json")
with open(_CACHE) as _fh:
    ERFC_POWER_INTEGRAL = {int(n): float(v) for n, v in json.load(_fh)["erfc_power_integral"].items()}

NS = [1, 2, 10, 100, 10**4]


def _assert_honest(res, exact):
    """The error bound covers the error, up to 8 ulp for the rounding of
    the final sum, which the bound leaves out."""
    assert abs(res.value - exact) <= res.error_bound + 8 * EPS * exact


@pytest.mark.parametrize("n", NS)
def test_exponential_closed_form(n):
    tol = 1e-10
    res = survival_power_integral(exponential(1.0), n, tol)
    assert res.converged
    assert abs(res.value - 1.0 / n) <= 10 * tol


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("rate", [0.5, 3.0])
def test_exponential_rates(n, rate):
    res = survival_power_integral(exponential(rate), n, 1e-10)
    assert abs(res.value - 1.0 / (n * rate)) <= 1e-9


@pytest.mark.parametrize("n", NS)
def test_uniform_closed_form(n):
    tol = 1e-12
    res = survival_power_integral(uniform01(), n, tol)
    assert res.converged
    assert abs(res.value - 1.0 / (n + 1)) <= 10 * tol
    assert res.truncation_point <= 1.0


def test_uniform_n9_example():
    res = survival_power_integral(uniform01(), 9, 1e-12)
    assert res.value == pytest.approx(0.1, abs=1e-11)


def test_half_normal_n1():
    res = survival_power_integral(half_normal(), 1, 1e-10)
    assert abs(res.value - INV_SQRT_PI) <= 1e-9


def test_half_normal_n2_oracle():
    tol = 1e-10
    res = survival_power_integral(half_normal(), 2, tol)
    assert abs(res.value - ERFC_SQUARED_INTEGRAL) <= 10 * tol


@pytest.mark.parametrize("n,alpha", [(3, 2.0), (2, 1.5), (10, 0.3)])
def test_heavy_tail_closed_form(n, alpha):
    res = survival_power_integral(heavy_tail(alpha), n, 1e-8)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (n * alpha - 1.0), abs=1e-7)


@pytest.mark.parametrize("n,alpha", [(1, 0.5), (2, 0.5), (1, 1.0)])
def test_divergent_tail_raises(n, alpha):
    with pytest.raises(NonConvergentError):
        survival_power_integral(heavy_tail(alpha), n, 1e-10)


@pytest.mark.parametrize("log_s, at", [(lambda y: math.nan, "1.0"),
                                       (lambda y: -1e-3 * y if y < 5.0 else math.nan, "16.0")],
                         ids=["everywhere", "from-5"])
def test_nan_log_survival_is_an_error_not_a_divergence(log_s, at):
    # it walked to the largest floats and raised NonConvergentError, which
    # says that the expected minimum is divergent or nearly so
    with pytest.raises(ValueError, match=f"log_survival is nan at {at}$"):
        survival_power_integral(Distribution("nan", log_s, 1.0, math.inf), 3, 1e-10)


@pytest.mark.parametrize("residual", [None, lambda n, b: -math.log(n)], ids=["chord", "remainder"])
def test_nan_inside_a_panel_is_an_error(residual):
    # the NaN lies between the grid's boundaries 0 and 1, where only the
    # panel's nodes see it; the panel was split to width 0 and raised
    # ZeroDivisionError
    hole = Distribution("hole", lambda y: math.nan if 0.3 < y < 0.4 else -y, 1.0, math.inf, residual)
    with pytest.raises(ValueError, match=r"^hole: log_survival is nan on the panel \[0\.0, 1\.0\]$"):
        survival_power_integral(hole, 3, 1e-10)


@pytest.mark.parametrize("residual", [None, lambda n, b: -math.log(n)], ids=["chord", "remainder"])
@pytest.mark.parametrize("hole", [(0.3, 0.4), (0.0, 0.2)], ids=["k21-nodes", "g10-nodes"])
def test_infinite_log_survival_inside_a_panel_is_an_error(hole, residual):
    # exp(inf) is inf, with no OverflowError: where only K21's nodes see the
    # hole, the value came back inf and unconverged, and where G10's do, the
    # difference or null-rule sums raised a bare "-inf + inf in fsum".  There
    # the law declares a single scale, so that its panel at 0 starts at G10
    # and its null rules
    lo, hi = hole
    inf_hole = Distribution("infhole", lambda y: math.inf if lo < y < hi else -y, 1.0, math.inf, residual,
                            single_scale=lo == 0.0)
    with pytest.raises(ValueError, match=r"^infhole: log_survival is above 0 on the panel \[0\.0, 1\.0\]$"):
        survival_power_integral(inf_hole, 3, 1e-10)


@pytest.mark.parametrize("log_s, match", [
    (lambda y: 1.0, r"log_survival is 1\.0 at 1\.0$"),
    (lambda y: 800.0 if y > 0.5 else -y, r"log_survival is 800\.0 at 1\.0$"),
    (lambda y: 0.01 * y, r"log_survival is 0\.01 at 1\.0$"),
    # between the boundaries 0 and 1, at K21's nodes only: exp overflows there
    (lambda y: 800.0 if 0.3 < y < 0.4 else -y, r"log_survival is above 0 on the panel \[0\.0, 1\.0\]$"),
    # exp is finite at every node, but fsum of K21's values overflows
    (lambda y: 236.4 if 0.05 < y < 0.95 else -y, r"log_survival is above 0 on the panel \[0\.0, 1\.0\]$"),
    # past the last boundary 4, at y*, which the grid reads for the chord
    # tail's premise
    (lambda y: 0.5 if y > 8.0 else -y, r"log_survival is 0\.5 at 14\.496739514976252$"),
], ids=["one", "jump", "rise", "bump", "sum", "y-star"])
def test_survival_above_one_is_an_error(log_s, match):
    # each raised a bare OverflowError from math.exp
    with pytest.raises(ValueError, match=match):
        survival_power_integral(Distribution("above", log_s, 1.0, math.inf), 3, 1e-10)


@pytest.mark.parametrize("dist", [exponential(1.0), uniform01(), half_normal()],
                         ids=lambda d: d.name)
def test_monotone_in_n(dist):
    values = [survival_power_integral(dist, n, 1e-12).value
              for n in (1, 2, 3, 5, 10, 30, 100)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_refining_tol_is_stable():
    # a 10x tighter tolerance moves the value by at most the looser bound
    for dist in (exponential(1.0), half_normal(), heavy_tail(2.0)):
        loose = survival_power_integral(dist, 7, 1e-6)
        tight = survival_power_integral(dist, 7, 1e-7)
        assert abs(loose.value - tight.value) <= max(
            loose.error_bound, tight.error_bound
        )


def test_result_fields():
    # every route hands on the quadrature's MinResult: the quadrature routes
    # with their truncation point and panels, the asymptotic routes with neither
    res = survival_power_integral(half_normal(), 5, 1e-10)
    assert (res.n, res.method) == (5, "quadrature")
    assert res.value >= 0.0
    assert res.error_bound >= 0.0
    assert res.converged == (res.error_bound <= 1e-10)
    assert expected_min(half_normal(), 5, 1e-10) == res
    for r in (res, expected_min(exponential(1.0), 5), nmin(5), emin(5)):
        assert r.panels >= 1
        assert 0.0 < r.truncation_point < math.inf
    base, sphere, factor = nmin(5), emin(5), gamma_ratio(5, 1)
    assert (sphere.panels, sphere.truncation_point) == (base.panels, base.truncation_point)
    assert sphere.value == factor * base.value
    assert sphere.error_bound == factor * base.error_bound + 3.5 * EPS * sphere.value
    r = asymptotic_min(exponential(1.0), 5)
    assert r.panels is None and r.truncation_point is None


def _counting(dist, limit=10**6):
    """dist with a log_survival that records each point it is called at,
    and raises after ``limit`` calls so that a runaway call fails."""
    calls = []

    def counted(y):
        calls.append(y)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} log_survival calls")
        return dist.log_survival(y)

    return replace(dist, log_survival=counted), calls


def test_tail_scan_stops_once_blocks_underflow():
    # the walk over the grid's boundaries ends at y*, no later than the
    # first boundary where the block bound and the integrand underflow
    counted, calls = _counting(half_normal())
    res = survival_power_integral(counted, 10, 1e-10)
    assert res.value == survival_power_integral(half_normal(), 10, 1e-10).value
    assert len(calls) <= 300


@pytest.mark.parametrize("dist,n,tol,limit", [
    (half_normal(), 10, 1e-10, None), (exponential(1.0), 1, 1e-10, None), (heavy_tail(2.0), 10, 1e-10, None),
    # each exact remainder stands at the first boundary where its rounding
    # fits: heavy_tail(1.5) stops at y* = 1 with 11 evaluations, where a
    # ratio gate that looked one boundary ahead stood at y* = 4 with 34,
    # standing at the gate's own boundary took y* = 16 and 108, and the
    # geometric tail bound walked on to 1.9e22 with 1256; the exponentials
    # take 198 and 11, and uniform01 11
    (heavy_tail(1.5), 1, 1e-10, 11), (exponential(1e-3), 1, 1e-13, 280), (exponential(1.0), 10**6, 1e-10, 24),
    (uniform01(), 10**6, 1e-13, 24),
], ids=["half-normal", "exponential", "heavy-tail-2", "heavy-tail-1.5", "exponential-1e-3", "exponential-n-1e6",
        "uniform01-n-1e6"])
def test_walk_stops_at_truncation_point(dist, n, tol, limit):
    # the tail is bounded where the walk stands, so it evaluates no boundary
    # past y*
    counted, calls = _counting(dist)
    res = survival_power_integral(counted, n, tol)
    assert res.converged
    assert max(calls) <= res.truncation_point
    if limit is not None:
        assert len(calls) <= limit


@pytest.mark.parametrize("n", [1, 3, 50])
@pytest.mark.parametrize("n_alpha", [1.05, 1.07, 1.074, 1.0745, 1.08, 1.2])
def test_divergence_classification(n, n_alpha):
    # heavy_tail's log_mean_residual raises where n alpha <= 1 +
    # log_4(1/0.95^2) = 1.0740006, whatever n and tol, and its remainder
    # stands above that
    dist, exact = _exact("heavy_tail", n_alpha / n, n)
    if n_alpha <= 1.074:
        with pytest.raises(NonConvergentError):
            survival_power_integral(dist, n, 1e-10)
    else:
        res = survival_power_integral(dist, n, 1e-10)
        assert res.converged
        _assert_honest(res, exact)


def test_heavy_tail_limit_is_the_float_just_above_it():
    # n * alpha < _N_ALPHA_LIMIT is then exactly n * alpha <= 1 + log_4(1/0.95^2)
    limit = distributions._N_ALPHA_LIMIT
    with mp.workdps(40):
        exact = 1 + mp.log(1 / mp.mpf("0.95") ** 2, 4)
        assert math.nextafter(limit, 0.0) < exact < limit


@pytest.mark.parametrize("residual, error, match", [
    (math.inf, NonConvergentError, r"^the remainder of survival\^3 for hand beyond 1\.0 is infinite"),
    (math.nan, ValueError, r"^hand: log_mean_residual is nan at 1\.0$"),
], ids=["inf", "nan"])
def test_remainder_that_is_not_finite_ends_the_walk(residual, error, match):
    # the walk decides no remainder divergent: a law states that its own
    # remainder diverges by an infinite log_mean_residual, and a NaN one is
    # an error of the law; both walked to the largest floats and returned
    # an inf or NaN value
    dist = Distribution("hand", lambda y: -y, 1.0, math.inf, lambda n, b: residual)
    with pytest.raises(error, match=match):
        survival_power_integral(dist, 3, 1e-10)


def test_remainder_that_overflows_is_infinite():
    # the mean 1/5.5e-309 overflows: exp(n log S(1) + log_mean_residual)
    # raises OverflowError at the first boundary, and the remainder is inf
    counted, calls = _counting(exponential(5.5e-309))
    with pytest.raises(NonConvergentError,
                       match=r"^the remainder of survival\^1 for exponential:5\.5e-309 beyond 1\.0 is infinite$"):
        expected_min(counted, 1)
    assert len(calls) == 1


def test_underflow_at_the_least_first_width_is_not_converged():
    # the mean 1/(n rate) = 1e-315 sits below _MIN_WIDTH = 2^-1022, where the
    # integrand has already underflowed: all 21 nodes of the one panel read 0,
    # so only the first width itself bounds what the panel missed
    counted, calls = _counting(exponential(1e300))
    res = survival_power_integral(counted, 10**15, 1e-320)
    assert res.value == 0.0
    assert res.converged is False
    assert res.error_bound >= 1e-315
    assert len(calls) == 22  # the first boundary and one panel, as before


def test_subnormal_lower_bound_sets_no_cap():
    # b_0 S(b_0)^n, the lower bound on the value 1e-309 that caps each
    # panel's tolerance, is subnormal here: a cap of 2^-27 of it would ask
    # the one panel for a resolution the subnormals do not have, split it
    # (22 more evaluations) and move the value by one subnormal step
    counted, calls = _counting(exponential(1e300))
    res = survival_power_integral(counted, 10**9, 1e-10)
    assert res.value == 1e-309
    assert res.converged
    assert len(calls) == 22


def test_subnormal_lower_bound_starts_at_k21():
    # G10 stands only under a finite cap: here b_0 S(b_0)^n is subnormal, and
    # G10's null-rule estimate, floored at eps/2 of a subnormal value, would
    # let its value stand 11849 subnormal steps from the mean 1/(n rate)
    counted, calls = _counting(exponential(5e299))
    res = expected_min(counted, 10**9, 1e-10)
    assert abs(res.value - 2e-309) <= math.ulp(0.0)
    assert res.converged
    assert len(calls) == 22


def test_block_bound_alone_does_not_end_the_walk():
    # at b_0 = _MIN_WIDTH the block bound 3 b_0 S(b_0)^n underflows, but the
    # integrand there, e^-222.5, does not: the walk stands on the exact
    # remainder beyond b_0, where stopping on the block bound alone would
    # count all of [0, b_0] as missed mass, a bound of 2.2e-308 on the mean
    # 1e-310
    res = expected_min(exponential(1e300), 10**10, 1e-10)
    assert res.converged
    assert res.error_bound < 1e-310
    assert abs(res.value - 1e-310) <= res.error_bound


def test_last_panel_takes_all_the_budget_left(monkeypatch):
    # a first panel split 60 levels deep about 1/3 leaves the float sum of
    # the pending shares above the last panel's share of 1; that panel still
    # gets all of the budget left, so its error of exactly that is accepted,
    # where a tolerance of its share of the drifted sum would be split until
    # _MAX_LEAVES
    budget = 1e-3

    def rule(log_s, n, a, b, nodes, weights, diffs, fx):
        err = 1.0 if a < 1 / 3 < b and b - a > 2.0**-60 else (budget if a == 3.0 else 0.0)
        return b - a, err, fx

    monkeypatch.setattr(quadrature, "_rule", rule)
    value, error, leaves = quadrature._integrate_mesh(half_normal(), 1, [0.0, 1.0, 2.0, 3.0, 4.0], budget, math.inf)
    assert (value, error) == (4.0, budget)
    assert leaves < 100


def test_grid_longer_than_the_leaf_budget_is_accepted_panel_by_panel():
    # the mean 1e300 of exponential(1e-300) at n = 1 takes the 505 panels of
    # the grid from 0 to 4^504, where the exact remainder's rounding fits.
    # None splits, since the pending panels alone exceed _MAX_LEAVES: each
    # is accepted at the last rung it walks, and the result has not
    # converged.  The budget bounds the panels by the larger of _MAX_LEAVES
    # and the grid's own count, not by _MAX_LEAVES alone
    counted, calls = _counting(exponential(1e-300))
    res = expected_min(counted, 1)
    assert res.converged is False
    assert (res.panels, len(calls)) == (505, 11198)


def _mp_tail(family, k, n, y):
    """int_y^inf S^n at 30 digits, split at y + 4^j / (n h(y)), h the hazard."""
    with mp.workdps(30):
        y = mp.mpf(y)
        if family == "half_normal":
            upper, hazard = mp.inf, 2 * mp.exp(-y * y) / (mp.sqrt(mp.pi) * mp.erfc(y))
            survival = mp.erfc
        else:
            upper, hazard = mp.mpf(1), k * y**(k - 1) / (1 - y**k)
            survival = lambda t: 1 - t**k  # noqa: E731
        if y >= upper:
            return mp.mpf(0)
        points = [y + mp.mpf(4)**j / (n * hazard) for j in range(-1, 12)]
        points = [y] + [t for t in points if t < upper] + [upper]
        return mp.quad(lambda t: survival(t)**n, points)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["half_normal", "power_law"]),
       param=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=10**15),
       at=st.floats(min_value=-4.0, max_value=3.0),
       first=st.booleans(),
       past=st.floats(min_value=0.0, max_value=4.0))
# n log S is all but straight on [0, 2b]: only the allowance for the rounding
# of the chord's exponent keeps the chord tail above the tail
@example(family="half_normal", param=0.0, n=10**15, at=-4.0, first=True, past=1.0)
def test_chord_tail_bounds_the_tail(family, param, n, at, first, past):
    # the premise of the tail of a law without a remainder: n log S is
    # concave, so the chord through the boundary b and the point p before it
    # (0, or b/4), widened by the rounding of both values, lies above n log S
    # beyond b, and exp of it bounds the integral of S^n beyond any y >= b
    k = 1.01 * (20 / 1.01)**param  # log-uniform in [1.01, 20]
    dist = half_normal() if family == "half_normal" else power_law(k)
    b = 4.0**at * (1.0 / n if family == "half_normal" else n**(-1.0 / k))  # about the mass
    assume(b < dist.support_upper)
    p = 0.0 if first else 0.25 * b
    p_arg = n * dist.log_survival(p)
    arg = n * dist.log_survival(b)
    drop, log_tail = _chord(p, p_arg, b, arg)
    assume(drop > 0.0)
    y = b + past * b
    tail = _mp_tail(family, k, n, y)
    with mp.workdps(30):
        assert tail == 0 or mp.log(tail) <= log_tail - mp.mpf(drop) * (mp.mpf(y) - b) / (b - p)


def test_chord_that_does_not_fall_bounds_nothing():
    # a chord whose fall is within the rounding of its two values gives no
    # tail bound, and the walk goes on to the next boundary
    drop, log_tail = _chord(0.0, 0.0, 0.25, 0.0)
    assert drop <= 0.0 and log_tail == math.inf


def test_law_without_a_remainder_must_be_log_concave():
    # without its remainder, the heavy tail's n log S = -n alpha log(1 + y),
    # which is convex, falls ever more slowly: its second chord shows it, and
    # a chord would not bound its tail.  At n = 10^15 the two chords agree
    # within rounding, and n log S at y*, past the last chord, about 1.5
    # times the rounding above it, shows it instead
    dist = replace(heavy_tail(2.0), log_mean_residual=None)
    for n in (1, 10, 10**6, 10**15):
        with pytest.raises(HypothesisViolatedError) as info:
            survival_power_integral(dist, n, 1e-10)
        assert info.value.condition == "log-concave"


def test_bend_between_the_last_boundary_and_y_star_is_seen():
    # S = e^-y up to 20 and e^-(20 + (y - 20)/100) beyond is log-concave at
    # the boundaries 1, 4 and 16 of exponential(1)'s grid at tol 1e-10, and
    # bends above their chord before y* = 42.6, where the walk reads it
    def log_survival(y):
        return -y if y <= 20.0 else -20.0 - 0.01 * (y - 20.0)

    dist = Distribution("bent", log_survival, 1.0, math.inf)
    with pytest.raises(HypothesisViolatedError) as info:
        survival_power_integral(dist, 1, 1e-10)
    assert info.value.condition == "log-concave"


def test_grid_reads_the_law_at_y_star():
    # the chord tail's premise at a y* inside the block after the last
    # boundary is checked where the grid reads the law there, once: 55
    # evaluations, where checking it at a panel's K21 node took 54
    counted, calls = _counting(half_normal())
    res = survival_power_integral(counted, 100, 1e-10)
    assert res.converged
    assert calls.count(res.truncation_point) == 1
    assert len(calls) == 55


@pytest.mark.parametrize("k,n,tol", [(100, 1, 1e-10), (80, 1, 1e-13), (500, 10**9, 1e-13), (1e3, 1000, 1e-10)])
def test_steep_power_law_is_log_concave(k, n, tol):
    # 1 - y^k is log-concave, but the log of exp(n log S) at a node past the
    # last boundary can read 0, above a chord whose values are about 1e-60.
    # The grid checks the premise only on n log S as the law returns it, at
    # its boundaries and at a y* below the support's end; here y* is that
    # end, 1, where the tail is 0 and no chord needs to hold
    # (power_law(100) at n = 1 has the mean 100/101)
    dist, exact = _exact("power_law", k, n)
    res = survival_power_integral(dist, n, tol)
    assert res.converged
    _assert_honest(res, exact)


@pytest.mark.parametrize("n", [1, 10**3, 10**6])
@pytest.mark.parametrize("k", [1e4, 1.5e4, 5e4, 1e6])
def test_cliff_at_the_end_of_the_support_is_split(k, n):
    # (1 - y^k)^n falls from about 1 to 0 within O(1/k) of 1, past the node
    # nearest 1 of the last panel, so no node saw the cliff: power_law(5e4)
    # returned 1.0 at every n, off by up to 2.9e-4 with a bound of 1.2e-17.
    # A panel that ends at the support's end while the integrand at that
    # node is above e^-1 is split a quarter of its width from the end
    dist, exact = _exact("power_law", k, n)
    res = survival_power_integral(dist, n, 1e-10)
    assert res.converged
    _assert_honest(res, exact)


@pytest.mark.parametrize("k,n", [(2.0222447127092806, 219), (2.02273462079559, 1423)])
def test_k43_error_at_a_cusp_is_bounded(k, n):
    # K21's error on the cusp y^k at 0 crosses zero near k = 2.022, where
    # |K43 - K21| reads 0.71 and 0.31 of K43's own error on the panel at 0
    dist, exact = _exact("power_law", k, n)
    res = survival_power_integral(dist, n, 1e-13)
    assert res.converged
    _assert_honest(res, exact)


def test_cusp_ratio_bounds_k43_error_on_a_cusp():
    # on x^alpha, alpha > 1, over [0, 1], K43's error per unit of |K21 - G10|
    # is largest as alpha -> 1, where it is the ratio of their errors on
    # x log x, 3.0e-4; the nodes are the table's floats, as the panels use them
    def errors(f, exact):
        values = [f((1 + mp.mpf(x)) / 2) for x in _RULES[2][0]]
        g10, k21, k43 = (mp.fsum(mp.mpf(w) * v for w, v in zip(ws, values)) / 2 - exact
                         for _, ws, _ in _RULES)
        return abs(k43) / abs(k21 - g10)

    with mp.workdps(40):
        ratios = [errors(lambda x: x * mp.log(x), mp.mpf(-1) / 4)]
        ratios += [errors(lambda x: x**a, 1 / (a + 1)) for a in mp.linspace(1.001, 3.999, 64) + [mp.mpf("2.022")]]
    assert max(ratios) == ratios[0]
    assert 2.9e-4 < ratios[0] < quadrature._CUSP_RATIO


@pytest.mark.parametrize("tol", [0.0, -1e-5, 0.5, 1.0])
def test_invalid_tolerance(tol):
    with pytest.raises(InvalidToleranceError):
        survival_power_integral(exponential(1.0), 1, tol)


@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_invalid_n(n):
    with pytest.raises(ValueError):
        survival_power_integral(exponential(1.0), n, 1e-10)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=500),
       rate=st.floats(min_value=0.1, max_value=10.0))
def test_exponential_property(n, rate):
    res = survival_power_integral(exponential(rate), n, 1e-10)
    assert res.value == pytest.approx(1.0 / (n * rate), abs=1e-9, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=500))
def test_uniform_property(n):
    res = survival_power_integral(uniform01(), n, 1e-11)
    assert res.value == pytest.approx(1.0 / (n + 1), abs=1e-10)


def test_kronrod_table_is_exact():
    # K21 integrates polynomials of degree <= 31 exactly, G10 those of degree <= 19
    assert all(w > 0 for w in _WK)  # so a nonnegative integrand gives a nonnegative value
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod = math.fsum(w * x**k for w, x in zip(_WK, _XK))
        assert abs(kronrod - exact) <= 1e-15
        if k <= 19:
            gauss = math.fsum(w * x**k for w, x in zip(_WG, _XK[1::2]))
            assert abs(gauss - exact) <= 1e-15
            # the weights of the panel error K21 - G10 integrate them to 0
            assert abs(math.fsum(w * x**k for w, x in zip(_RULES[1][2], _RULES[1][0]))) <= 1e-15


def _legendre(k, x):
    """P_k(x) by its three-term recurrence."""
    p0, p1 = 1.0, x
    for j in range(1, k):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p1 if k else p0


def test_patterson_table_is_exact():
    # K43 reuses the 21 Kronrod nodes bit for bit, at the odd indices of its
    # nodes in the order of its weights, and integrates polynomials of degree
    # <= 64 exactly.  In the Legendre basis the first it misses, P_66, shows
    # an error of 5.7e-5 where x^66 would show one below rounding
    x43 = sorted(_XK + _XP, reverse=True)
    assert len(set(x43)) == len(_W43) == 43
    assert x43[1::2] == list(_XK)
    assert all(w > 0 for w in _W43)
    # the rows of _RULES hold each rule's nodes and weights in the order of
    # its values, those of the rules before it first: G10's, Kronrod's, then
    # Patterson's
    assert _RULES[2][0][:21] == _RULES[1][0] and _RULES[1][0][:10] == _RULES[0][0] == _XG
    assert sorted(zip(*_RULES[1][:2]), reverse=True) == list(zip(_XK, _WK))
    assert sorted(zip(*_RULES[2][:2]), reverse=True) == list(zip(x43, _W43))
    for k in range(65):
        rule = math.fsum(w * _legendre(k, x) for w, x in zip(_W43, x43))
        assert abs(rule - (2.0 if k == 0 else 0.0)) <= 1e-15
        if k <= 31:
            # the weights of the panel error K43 - K21 integrate those of
            # K21's degree to 0
            diff = math.fsum(w * _legendre(k, x) for w, x in zip(_RULES[2][2], _RULES[2][0]))
            assert abs(diff) <= 1e-15
    assert abs(math.fsum(w * _legendre(66, x) for w, x in zip(_W43, x43))) > 1e-6


def _extension(node_poly, m):
    """The monic polynomial F of degree m with int_-1^1 N F x^j dx = 0 for
    j < m, N the polynomial of the nodes so far: its roots are the nodes
    that a nested rule adds.  Coefficients lowest first, in mpmath."""
    def moment(k):
        return mp.mpf(2) / (k + 1) if k % 2 == 0 else mp.mpf(0)

    def inner(j, i):
        return sum(c * moment(k + i + j) for k, c in enumerate(node_poly))

    lhs = mp.matrix([[inner(j, i) for i in range(m)] for j in range(m)])
    rhs = mp.matrix([-inner(j, m) for j in range(m)])
    return list(mp.lu_solve(lhs, rhs)) + [mp.mpf(1)]


def _times(p, q):
    out = [mp.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _roots(coeffs):
    return sorted((mp.re(r) for r in mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)), reverse=True)


def test_patterson_nodes_match_their_derivation():
    # G10's nodes are the roots of P_10; Kronrod's 11 and Patterson's 22 are
    # each the roots of the extension of the nodes before them.  At 60 digits
    # that reproduces every node, and the weights that integrate P_0 ... P_42
    # on all 43, to within 1 ulp of the table
    with mp.workdps(60):
        p10 = mp.taylor(lambda x: mp.legendre(10, x), 0, 10)
        p10 = [c / p10[-1] for c in p10]
        k21 = _times(p10, _extension(p10, 11))
        new = _roots(_extension(k21, 22))
        derived = sorted(_roots(k21) + new, reverse=True)
        lhs = mp.matrix([[mp.legendre(k, x) for x in derived] for k in range(43)])
        weights = mp.lu_solve(lhs, mp.matrix([2] + [0] * 42))
    for table, exact in [(_XK, derived[1::2]), (_XP, new), (_W43, weights)]:
        assert len(table) == len(exact)
        for t, e in zip(table, exact):
            assert abs(t - float(e)) <= math.ulp(t)


def test_null_rules_read_the_legendre_coefficients():
    # G10's null rules weigh its values by w_i p_j(x_i), p_j = sqrt(j + 1/2)
    # P_j, j = 4 ... 9, at its nodes, the roots of P_10 (each within 1 ulp of
    # 60 digits), mirrored by p_j(-x) = (-1)^j p_j(x).  G10 integrates p_j p_k
    # to delta_jk for j + k <= 19, so the coefficient c_j of the values of
    # p_k reads delta_jk for every k <= 9: 0 on every polynomial of degree
    # below j, and 1 on p_j
    with mp.workdps(60):
        nodes = _roots(mp.taylor(lambda x: mp.legendre(10, x), 0, 10))
        p = [[float(mp.sqrt(k + mp.mpf(1) / 2) * mp.legendre(k, x)) for x in nodes] for k in range(10)]
    for x, e in zip(_XG, nodes):
        assert abs(x - float(e)) <= math.ulp(x)
    assert len(_NULL_HALF) == 6 and all(len(row) == 5 for row in _NULL_HALF)
    for j, row in enumerate(_NULL_HALF, 4):
        rule = list(row) + [(-1) ** j * w for w in row[::-1]]
        for k in range(10):
            assert abs(math.fsum(w * v for w, v in zip(rule, p[k])) - (1.0 if j == k else 0.0)) <= 1e-15


def _exact(family, param, n):
    """The integral for the float parameter the distribution is given."""
    with mp.workdps(30):
        if family == "exponential":
            return exponential(param), float(1 / (n * mp.mpf(param)))
        if family == "uniform01":
            return uniform01(), float(mp.mpf(1) / (n + 1))
        if family == "power_law":
            inv = 1 / mp.mpf(param)
            return power_law(param), float(mp.beta(inv, n + 1) * inv)
        if family == "heavy_tail":
            return heavy_tail(param), float(1 / (n * mp.mpf(param) - 1))
    return half_normal(), ERFC_POWER_INTEGRAL[n]


# param = -5.938882272112998 maps to alpha = 1.08e-15, so n alpha = 1.08 at n = 10^15
N_ALPHA_108 = -5.938882272112998


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["exponential", "uniform01", "power_law", "heavy_tail", "half_normal"]),
       param=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=10**15),
       hn=st.sampled_from(sorted(ERFC_POWER_INTEGRAL)),
       tol=st.sampled_from([1e-4, 1e-10, 1e-13]))
@example(family="heavy_tail", param=N_ALPHA_108, n=10**15, hn=1, tol=1e-13)
@example(family="exponential", param=1.0, n=10**15, hn=1, tol=1e-13)  # rate 1e3
@example(family="power_law", param=0.23252126941090095, n=219, hn=1, tol=1e-13)  # k = 2.0222
# the three inputs of test_scaled_estimate_evaluation_count
@example(family="power_law", param=0.30355210742588473, n=1, hn=1, tol=1e-13)  # k = 2.5
@example(family="half_normal", param=0.0, n=1, hn=10, tol=1e-13)
@example(family="power_law", param=0.3965367064107471, n=1000, hn=1, tol=1e-13)  # k = 3.3
def test_error_bound_is_honest(family, param, n, hn, tol):
    # log-uniform rate in [1e-3, 1e3], k in [1.01, 20] and alpha in [0.05, 10];
    # n * alpha stays above 1.08, since heavy_tail's log_mean_residual still
    # raises for the finite means with n * alpha <= 1.074
    param = {"exponential": 1e-3 * 1e6**param, "power_law": 1.01 * (20 / 1.01)**param,
             "heavy_tail": 0.05 * 200.0**param}.get(family, param)
    if family == "half_normal":
        n = hn
    assume(family != "heavy_tail" or n * param >= 1.08)
    dist, exact = _exact(family, param, n)
    res = survival_power_integral(dist, n, tol)
    assert res.converged and res.error_bound <= tol
    _assert_honest(res, exact)


def test_uniform_rounding_is_within_two_ulp():
    # the bound leaves out the rounding of the final sum, so 2 of these
    # errors exceed it (n = 4, 5); the errors themselves stay within 1.42 ulp
    # (n = 37)
    for n in range(1, 60):
        value = expected_min(uniform01(), n).value
        assert abs(Fraction(value) - Fraction(1, n + 1)) <= 2 * math.ulp(1 / (n + 1))


def test_panel_error_is_finer_than_an_ulp_of_the_value():
    # the mean 1000 of exponential(1e-3) at n = 1 comes back exact, and tol
    # is below its ulp (1.1e-13); |K21 - G10| formed as the difference of two
    # rounded sums is a whole number of ulps of each panel, a bound of 1.8e-13
    dist, exact = _exact("exponential", 1e-3, 1)
    res = survival_power_integral(dist, 1, 1e-13)
    assert res.converged and res.error_bound <= 1e-13
    _assert_honest(res, exact)


@pytest.mark.parametrize("n,limit", [(10, 50), (10**6, 120)])
def test_nmin_evaluation_count(n, limit):
    # one walk over the grid's boundaries, then 21 evaluations per panel of
    # the G10/K21 rule (three separate geometric walks made 69 and 233)
    counted, calls = _counting(half_normal())
    res = survival_power_integral(counted, n, 1e-10)
    assert res.converged
    assert len(calls) <= limit


def test_power_law_evaluation_count():
    # the cusp of (1 - y^2.7)^10 at 0 is split at a quarter of the panel,
    # the grid's own ratio, the chord tail ends the last panel where the
    # tail fits, and a panel that misses its tolerance at K21 extends to K43
    # before it is split: 151 evaluations where splitting at once took 211,
    # and midpoint splits and a geometric tail bound on whole blocks 336
    counted, calls = _counting(power_law(2.7))
    res = survival_power_integral(counted, 10, 1e-13)
    assert res.converged
    assert len(calls) <= 160


@pytest.mark.parametrize("family,param,n,limit", [("power_law", 2.5, 1, 70), ("half_normal", None, 10, 70),
                                                 ("power_law", 3.3, 1000, 95)])
def test_scaled_estimate_evaluation_count(family, param, n, limit):
    # a panel whose |K21 - G10| misses its tolerance is judged again by
    # QUADPACK's scaled estimate before it extends to K43 or splits: 66, 65
    # and 88 evaluations, where |K21 - G10| alone took 130, 87 and 174
    dist, exact = _exact(family, param, n)
    counted, calls = _counting(dist)
    res = survival_power_integral(counted, n, 1e-13)
    assert res.converged
    _assert_honest(res, exact)
    assert len(calls) <= limit


@pytest.mark.parametrize("dist,n,exact,count", [
    pytest.param(exponential(1.3), 10**4, 1 / 1.3e4, 11, id="True-11"),
    pytest.param(replace(exponential(1.3), single_scale=False), 10**4, 1 / 1.3e4, 22, id="False-22"),
    *(pytest.param(uniform01(), n, 1 / (n + 1), 12, id=f"uniform01-{n}") for n in (1, 2, 3)),
])
def test_smooth_panel_at_zero_stops_at_g10(dist, n, exact, count):
    # the panel [0, b_0] of a law with a finite positive f(0) holds the
    # integrand from 1 to about e^-4, on which G10 alone is accurate, and
    # its null-rule estimate says so: the grid's 2 evaluations and G10's 10,
    # where K21 takes 23, as it still does for a law that does not declare
    # a single scale.  (1 - y)^n at n <= 3 is a polynomial on [0, 1/4] that
    # G10 integrates exactly, whose top coefficients are only the rounding
    # of the c_j and fail e1 <= e2/4 on noise: G10 stands with their sum as
    # its error after the grid's 2 evaluations, where K21 took 23
    counted, calls = _counting(dist)
    res = expected_min(counted, n)
    assert res.converged and res.panels == 1
    assert len(calls) == count
    _assert_honest(res, exact)


def test_survival_power_integral_digest():
    # every bit a call hands on, and its log_survival calls, over laws that
    # stop at each rule: the panel at 0 at G10 (the four laws with a finite
    # positive f(0)), at K21 and at K43, under the cusp floor (the power law
    # where K21's error on y^k crosses zero, near k = 2.022), and split at
    # the cliff of power_law(1.5e4); heavy_tail(0.35) raises at n = 3, where
    # n alpha = 1.05, and at n <= 2
    laws = [half_normal(), exponential(1.3), uniform01(), power_law(3.3), power_law(1.5e4),
            power_law(2.0222447127092806), heavy_tail(2.2), heavy_tail(0.35)]
    digest = hashlib.sha256()
    for dist in laws:
        for n in (1, 2, 3, 10, 219, 10**3, 10**6, 10**12):
            for tol in (1e-4, 1e-10, 1e-13, 1e-16):
                counted, calls = _counting(dist)
                try:
                    r = survival_power_integral(counted, n, tol)
                    line = (f"{r.value.hex()} {r.error_bound.hex()} {r.converged} "
                            f"{r.truncation_point.hex()} {r.panels}")
                except SphereMinError as e:
                    line = type(e).__name__
                digest.update(f"{dist.name} {n} {tol!r} {line} {len(calls)}\n".encode())
    assert digest.hexdigest() == "346ad39948d33072de1f5afb4f0787f698f0a9466461573693daf5c9cd7e6767"


def _pole(eps, alpha):
    """S = (1 + y/eps)^-alpha, whose pole at -eps lies a fraction of the first
    panel's width from it where n alpha is near 1, with the exact remainder
    log((eps + b)/(n alpha - 1)); its mean is eps/(n alpha - 1)."""
    def log_mean_residual(n, b):
        return math.log(eps + b) - math.log(n) - math.log(alpha) - math.log1p(-1.0 / (n * alpha))

    return Distribution(f"pole:{eps:g}:{alpha:g}", lambda y: -alpha * math.log1p(y / eps), alpha / eps, math.inf,
                        log_mean_residual, single_scale=True)


@pytest.mark.parametrize("alpha", [0.55, 2.0, 20.0])
@pytest.mark.parametrize("eps", [1e-3, 1.0, 10.0])
def test_null_rule_estimate_is_honest_near_a_pole(eps, alpha):
    # the Legendre coefficients of the integrand on [0, b_0] decay slowest,
    # and G10's null-rule estimate has the least margin, where a pole lies
    # close to the panel, here at -eps with b_0 about 4 eps/(n alpha)
    dist = _pole(eps, alpha)
    for n in (2, 10, 10**4):
        exact = float(Fraction(eps) / (n * Fraction(alpha) - 1))
        for tol in (1e-8 * eps, 1e-13 * eps):
            res = survival_power_integral(dist, n, tol)
            assert res.converged
            _assert_honest(res, exact)


def _spike(q, lam, single_scale=False):
    """S = p e^-y + q e^-(lam y), p = 1 - q, whose fast part falls off long
    before the slow one, with its exact remainder at n = 1,
    log(p e^-b + (q/lam) e^-(lam b)) - log S(b); its mean is p + q/lam."""
    p = 1.0 - q

    def log_survival(y):
        return math.log(p * math.exp(-y) + q * math.exp(-lam * y))

    def log_mean_residual(n, b):
        return math.log(p * math.exp(-b) + q / lam * math.exp(-lam * b)) - log_survival(b)

    return (Distribution(f"spike:{q:g}:{lam:g}", log_survival, p + q * lam, math.inf, log_mean_residual,
                         single_scale=single_scale), p + q / lam)


@pytest.mark.parametrize("lam", [1e3, 3e3, 1e4, 1e5, 1e7])
def test_null_rule_estimate_needs_falling_coefficients(lam):
    # a law that claims a single scale wrongly: on [0, b_0] the fast part
    # 0.003 e^-(lam y) has fallen off before all of G10's nodes but the
    # outermost, which shows in c_8 and c_9 as a floor under the slow part's
    # falling coefficients (lam = 1e3, 3e3: e1/e2 = 0.04, 0.08, but e2/e3 =
    # 0.0015, 0.0003), or alone sets c_4 ... c_9 in the ratio of p_j at
    # that node (lam >= 1e5: e1/e2 = 0.49, which a test of e1 <= e2/2 took
    # for decay).  G10 was accepted with errors of 3e-6 ... 3e-10 and bounds
    # near 5e-15; K21's outermost node sees the fast part
    dist, exact = _spike(0.003, lam, single_scale=True)
    for tol in (1e-10, 1e-13):
        res = survival_power_integral(dist, 1, tol)
        assert res.converged
        _assert_honest(res, exact)


@pytest.mark.parametrize("lam", [1e3, 3e3])
def test_faster_part_below_the_slow_coefficients_needs_k21(lam):
    # the fast part 1e-4 e^-(lam y) shows in none of G10's coefficients
    # above the slow part's own: a law that claimed a single scale would
    # stop at G10 with errors of 1e-7 and 3e-8 against bounds of 3e-15, so
    # a law that does not claim one takes K21 on the panel at 0, which sees it
    dist, exact = _spike(1e-4, lam)
    for tol in (1e-10, 1e-13):
        res = survival_power_integral(dist, 1, tol)
        assert res.converged
        _assert_honest(res, exact)


def _null_exit(fx):
    """Which exit of G10's null-rule estimate the values fx take, by e1, e2
    and e3 as _rule's docstring defines them."""
    c = [math.fsum(w * (fx[i] + (-1) ** j * fx[9 - i]) for i, w in enumerate(row))
         for j, row in enumerate(_NULL_HALF, 4)]
    e1, e2, e3 = math.hypot(c[5], c[4]), math.hypot(c[3], c[2]), math.hypot(c[1], c[0])
    if e2 > 0.0 and e1 <= 0.25 * e2 and e1 * e3 <= e2 * e2:
        return "stands"
    if max(e1, e2, e3) < 4 * EPS * abs(math.fsum(map(float.__mul__, _WG, fx))) and fx[0] < 0.875 * fx[9]:
        return "rounding"
    if not e2 > 0.0:
        return "e2 = 0"
    if not e1 <= 0.25 * e2:
        return "e1 > e2/4"
    return "slows"


def test_null_rule_estimate_digest():
    # every bit of G10's (value, err) at each exit of its null-rule
    # estimate, on the panel at 0 of calls that reach it, and past the
    # support's end, where every value is 0: the estimate stands (the four
    # laws with a finite positive f(0)); e2 = 0; e1 > e2/4, where only G10's
    # outermost node sees the spike's fast part; and e1 e3 > e2^2, where it
    # puts a floor under the slow part's falling coefficients; and at the
    # rounding of the c_j, where the polynomial 1 - y on [0, 1/4] leaves
    # only rounding in them
    spike = {lam: _spike(0.003, lam, single_scale=True)[0] for lam in (1e3, 3e3, 1e5, 1e7)}
    cases = [(exponential(1.3), 10**4, None, "stands"), (half_normal(), 100, None, "stands"),
             (uniform01(), 10**6, None, "stands"), (heavy_tail(2.2), 10, None, "stands"),
             (uniform01(), 1, (1.0, 2.0), "e2 = 0"),
             (spike[1e5], 1, None, "e1 > e2/4"), (spike[1e7], 1, None, "e1 > e2/4"),
             (spike[1e3], 1, None, "slows"), (spike[3e3], 1, None, "slows")]
    nodes, weights, diffs = _RULES[0]

    def line(dist, n, panel, exit):
        a, b = panel or (0.0, quadrature._grid(dist, n, 1e-10)[0][1])
        value, err, fx = quadrature._rule(dist, n, a, b, nodes, weights, diffs, [])
        assert _null_exit(fx) == exit
        assert (err < math.inf) == (exit in ("stands", "rounding"))
        return f"{dist.name} {n} {a!r} {b!r} {value.hex()} {err.hex()}"

    digest = hashlib.sha256()
    for case in cases:
        digest.update(f"{line(*case)}\n".encode())
    assert digest.hexdigest() == "1908b4b2039d1bca93268611cad0e9494cb770d74dd4380b62db2262814923f1"
    assert line(uniform01(), 1, None, "rounding") == "uniform01 1 0.0 0.25 0x1.c000000000000p-3 0x1.0acb10d8b8f4cp-53"


def test_nearly_flat_panel_at_rounding_needs_k21():
    # a law that claims a single scale wrongly, whose fast part sets a first
    # width of 4/(1 + q lam) on which the slow part is all but flat: G10's
    # top coefficients are at the rounding of the c_j, but the fast part
    # falls off between its nodes.  Stood on those coefficients, G10 erred
    # by 2.5e-10 against a bound of 7.1e-15; the values at its outermost
    # nodes, which fall by less than 1/8, send the panel on to K21
    dist, exact = _spike(0.0013810968656887044, 5454425.304053891, single_scale=True)
    res = survival_power_integral(dist, 1, 4.349502110658964e-09)
    assert res.converged
    _assert_honest(res, exact)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_infinite_density_at_zero_starts_at_k21(n):
    # S = 1 - sqrt(y) on [0, 1] has f(0) = inf: the integrand falls as
    # 1 - n sqrt(y), a cusp at 0 on which G10's null rules misjudge its
    # error, so only a finite positive f(0) starts the panel at 0 with G10
    # (one that only asked f(0) != 0 was 5.2x over the bound at n = 1, tol
    # 1e-10); the mean is 2/((n+1)(n+2))
    dist = Distribution("root", lambda y: math.log1p(-math.sqrt(y)) if y < 1.0 else -math.inf, math.inf, 1.0)
    for tol in (1e-10, 1e-13):
        res = survival_power_integral(dist, n, tol)
        assert res.converged
        _assert_honest(res, 2.0 / ((n + 1) * (n + 2)))


@pytest.mark.parametrize("k,n,tol,limit", [(3, 10**6, 1e-10, 90), (3, 10**9, 1e-10, 90), (4, 10**6, 1e-13, 112)])
def test_first_boundary_moves_up_to_the_mass(k, n, tol, limit):
    # power_law(k > 2) has its mass near n^(-1/k), far above the first guess
    # 1/sqrt(n), where n log S is -0.001 (k = 3, n = 10^6): the first width
    # walks up while the integrand stays above e^-1 at the next boundary,
    # where two or three flat panels took 110, 132 and 153 evaluations
    dist, exact = _exact("power_law", k, n)
    counted, calls = _counting(dist)
    res = survival_power_integral(counted, n, tol)
    assert res.converged
    _assert_honest(res, exact)
    assert len(calls) <= limit


@pytest.mark.parametrize("above", [0.5, math.inf])
@pytest.mark.parametrize("f0", [0.0, None], ids=["cusp", "undefined"])
def test_walk_up_stops_at_a_bad_probe(f0, above):
    # S = 1 up to 0.5, the first width at n = 4, and log S above 0 past it:
    # the walk up read each probe only against _FIRST_PANEL_LOG_CEILING, so
    # it climbed to the largest floats (514 calls) and named 2^1023.  The
    # probe at 2.0 now becomes the next boundary, which the walk checks
    counted, calls = _counting(Distribution("up", lambda y: above if y > 0.5 else 0.0, f0, math.inf))
    with pytest.raises(ValueError, match=rf"^up: log_survival is {above!r} at 2\.0$"):
        survival_power_integral(counted, 4, 1e-10)
    assert len(calls) <= 3


@pytest.mark.parametrize("f0, count", [(1.0, 512), (0.0, 513)], ids=["positive", "cusp"])
def test_chord_that_never_falls_raises(f0, count):
    # S = 1 everywhere: no chord falls, so the walk reaches the largest
    # floats with no tail bound; a law without a positive f(0) starts at
    # 1/sqrt(3) in place of 1, and its grid has one boundary more
    counted, calls = _counting(Distribution("flat", lambda y: 0.0, f0, math.inf))
    with pytest.raises(NonConvergentError, match=r"^tail of survival\^3 for flat cannot be bounded; "):
        survival_power_integral(counted, 3, 1e-10)
    assert len(calls) == count


def test_chord_tail_past_the_largest_floats_is_infinite():
    # S = e^(-r y) with no remainder, whose mass lies near 1/r, 1e307 to
    # 1e309: the walk reaches the largest floats, where y* is b itself.  In
    # 65 of these 200 rates (r = 4.5e-309 and below) the chord tail there
    # lies past the largest floats, where exp overflows: it is inf, not an
    # OverflowError, and like the finite tails of the other 135 it misses
    # the tolerance
    infinite = 0
    for i in range(200):
        r = 10.0 ** (-307 - 2 * i / 200)
        res = survival_power_integral(Distribution("flat", lambda y, r=r: -r * y, r, math.inf), 1, 1e-2)
        assert res.converged is False and res.error_bound > 1e-2 and math.isfinite(res.value)
        infinite += res.error_bound == math.inf
    assert infinite == 65


@pytest.mark.parametrize("k,n,tol", [(13.845779336307475, 1151337801, 6.481182917058046e-4),
                                     (16.57374962235587, 537714, 6.1287421224814285e-06),
                                     (16.069916549010593, 17264937280, 9.77443227830453e-4)])
def test_panel_error_at_the_cliff_is_bounded(k, n, tol):
    # at the cliff e^(-n y^k), K21 and G10 (or K43 and K21) err alike, so
    # their difference can understate a panel's error: equal shares of half
    # the tol left the first two 4.2x and 2.2x over their bounds, and one
    # budget spent left to right without a cap leaves the third 1.1x over.
    # The cap of each panel's tolerance at 2^-27 of b_0 S(b_0)^n, a lower
    # bound on the value, trusts an estimate only once it is small beside
    # the value
    dist, exact = _exact("power_law", k, n)
    res = survival_power_integral(dist, n, tol)
    assert res.converged
    _assert_honest(res, exact)


def test_value_below_the_tolerance_is_accurate_relative_to_itself():
    # the value 2.3e-10 of power_law(1.25) at n = 10^12 is about twice the
    # tol: a bound within tol allowed an error of 3e-7 of it, where the cap
    # of each panel's tolerance at 2^-27 of b_0 S(b_0)^n keeps it within 1e-12
    dist, exact = _exact("power_law", 1.25, 10**12)
    res = survival_power_integral(dist, 10**12, 1e-10)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12 * exact


@pytest.mark.parametrize("n", [10**6, 10**12])
def test_walk_stops_once_the_tail_is_negligible(n):
    # at large n the walk stops once the tail is negligible beside the
    # value: 66 evaluations where walking on to underflow made 110
    counted, calls = _counting(half_normal())
    res = survival_power_integral(counted, n, 1e-10)
    assert res.converged
    assert len(calls) <= 70


@pytest.mark.parametrize("k,n,tol", [(1.25, 10**12, 1e-10), (1.05, 10**15, 1e-10), (1.01, 10**7, 1e-4),
                                     (1.4944, 255 * 10**6, 1e-10), (1.14284, 104 * 10**11, 1e-13)])
def test_first_boundary_moves_down_to_the_mass(k, n, tol):
    # power_law(k < 2) has its mass near n^(-1/k), far below the first guess
    # 1/sqrt(n): the integrand has underflowed at every node there (the
    # first three), or the G10/K21 estimate of a first panel reaching far
    # past the mass falls short of its error (the last two)
    dist, exact = _exact("power_law", k, n)
    res = survival_power_integral(dist, n, tol)
    assert res.converged
    _assert_honest(res, exact)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["exponential", "uniform01", "power_law", "heavy_tail", "half_normal"]),
       param=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=10**15),
       hn=st.sampled_from(sorted(ERFC_POWER_INTEGRAL)),
       tol=st.sampled_from([1e-300, 1e-30, 1e-18]))
@example(family="half_normal", param=0.0, n=10, hn=10, tol=1e-300)
# n alpha = 1.41: the rounding of the remainder exceeds 1e-300 at every boundary below 1e308
@example(family="heavy_tail", param=0.5, n=2, hn=1, tol=1e-300)
@example(family="heavy_tail", param=N_ALPHA_108, n=10**15, hn=1, tol=1e-300)
@example(family="exponential", param=1.0, n=10**15, hn=1, tol=1e-300)  # rate 1e3
# k = 20: the first chord's rate times the budget underflows to 0, so y* is solved for in logs
@example(family="power_law", param=1.0, n=552, hn=1, tol=1e-300)
def test_unreachable_tolerance_ends_in_bounded_work(family, param, n, hn, tol):
    # the rounding noise of the panel estimate lies above 4e-16 of the value,
    # so most panels want splitting: the leaf budget must end the call, and
    # the result says whether its bound met tol
    param = {"exponential": 1e-3 * 1e6**param, "power_law": 1.01 * (20 / 1.01)**param,
             "heavy_tail": 0.05 * 200.0**param}.get(family, param)
    if family == "half_normal":
        n = hn
    assume(family != "heavy_tail" or n * param >= 1.08)
    dist, exact = _exact(family, param, n)
    counted, _ = _counting(dist, limit=50_000)
    t0 = time.perf_counter()
    res = survival_power_integral(counted, n, tol)
    assert time.perf_counter() - t0 < 5.0
    _assert_honest(res, exact)
    assert res.converged == (res.error_bound <= tol)
    if (family, n, tol) == ("half_normal", 10, 1e-300):
        assert res.converged is False
        assert abs(res.value - ERFC_POWER_INTEGRAL[10]) <= 1e-15
        # the budget goes to the panels from the left, where the mass sits;
        # spent from the right, it leaves a bound near 1e-13
        assert res.error_bound <= 1e-17
