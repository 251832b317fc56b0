"""Survival-power quadrature against closed forms and frozen oracles.

Closed forms: exponential(rate) gives 1/(n*rate); uniform01 gives
1/(n+1); heavy_tail(alpha) gives 1/(n*alpha - 1) when n*alpha > 1.
Half-normal n=2 is the mpmath oracle for the integral of erfc^2.
"""

import json
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spheremin.distributions import exponential, half_normal, heavy_tail, power_law, uniform01
from spheremin.errors import InvalidToleranceError, NonConvergentError
from spheremin.minima import asymptotic_min, emin, emin_asymptotic, expected_min, nmin
from spheremin.quadrature import _WD, _WG, _WK, _XK, survival_power_integral
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
    assert sphere.error_bound == factor * base.error_bound
    for r in (asymptotic_min(exponential(1.0), 5), emin_asymptotic(5)):
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


@pytest.mark.parametrize("dist,n", [(half_normal(), 10), (exponential(1.0), 1),
                                    (heavy_tail(2.0), 10), (heavy_tail(1.5), 1)],
                         ids=["half-normal", "exponential", "heavy-tail-2", "heavy-tail-1.5"])
def test_walk_stops_at_truncation_point(dist, n):
    # the tail is bounded where the walk stands, so it evaluates no
    # boundary past y*
    counted, calls = _counting(dist)
    res = survival_power_integral(counted, n, 1e-10)
    assert res.converged
    assert max(calls) <= res.truncation_point
    if dist.name == "heavy-tail:1.5":
        assert len(calls) <= 1300


@pytest.mark.parametrize("n", [1, 3, 50])
@pytest.mark.parametrize("n_alpha", [1.05, 1.07, 1.08, 1.2])
def test_divergence_classification(n, n_alpha):
    # the heavy tail's blocks decay by 4^(1 - n alpha) per boundary, and the
    # walk bounds the tail only once that is <= _TAIL_RATIO_CAP**2, that is
    # when n alpha > 1.074, whatever n and tol
    dist, exact = _exact("heavy_tail", n_alpha / n, n)
    if n_alpha < 1.074:
        with pytest.raises(NonConvergentError):
            survival_power_integral(dist, n, 1e-10)
    else:
        res = survival_power_integral(dist, n, 1e-10)
        assert res.converged
        assert abs(res.value - exact) <= res.error_bound + 8 * EPS * exact


def _log_block_ratios(dist, n, w0):
    """log(block(4b) / block(b)) = log 4 + n (log S(4b) - log S(b)) on the
    grid b = w0 * 4^k, while it is finite, with a bound on its rounding."""
    b = w0
    while b <= sys.float_info.max / 16.0:
        lo, hi = dist.log_survival(b), dist.log_survival(4.0 * b)
        value = math.log(4.0) + n * (hi - lo)
        if not math.isfinite(value):
            return
        yield value, 8 * EPS * (n * (abs(lo) + abs(hi)) + abs(value))
        b *= 4.0


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


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["exponential", "uniform01", "power_law", "heavy_tail", "half_normal"]),
       param=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=10**6),
       w0=st.floats(min_value=-12.0, max_value=0.0))
def test_block_ratios_do_not_rise(family, param, n, w0):
    # the premise of the grid's tail bound block / (1 - r): the ratio r of
    # successive blocks 3b S(b)^n does not rise with b
    param = {"exponential": 1e-3 * 1e6**param, "power_law": 1.01 * (20 / 1.01)**param,
             "heavy_tail": 0.05 * 200.0**param}.get(family, param)
    dist = {"exponential": exponential, "power_law": power_law, "heavy_tail": heavy_tail,
            "uniform01": lambda _: uniform01(), "half_normal": lambda _: half_normal()}[family](param)
    ratios = list(_log_block_ratios(dist, n, 10.0**w0))
    for (a, ea), (b, eb) in zip(ratios, ratios[1:]):
        assert b <= a + ea + eb


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
            assert abs(math.fsum(w * x**k for w, x in zip(_WD, _XK))) <= 1e-15


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


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["exponential", "uniform01", "power_law", "heavy_tail", "half_normal"]),
       param=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=10**15),
       hn=st.sampled_from(sorted(ERFC_POWER_INTEGRAL)),
       tol=st.sampled_from([1e-4, 1e-10, 1e-13]))
def test_error_bound_is_honest(family, param, n, hn, tol):
    # log-uniform rate in [1e-3, 1e3], k in [1.01, 20] and alpha in [0.05, 10];
    # n * alpha stays above 1.2, since the ratio test of the grid's walk
    # still calls some finite means with n * alpha near 1 divergent
    param = {"exponential": 1e-3 * 1e6**param, "power_law": 1.01 * (20 / 1.01)**param,
             "heavy_tail": 0.05 * 200.0**param}.get(family, param)
    if family == "half_normal":
        n = hn
    assume(family != "heavy_tail" or n * param >= 1.2)
    dist, exact = _exact(family, param, n)
    res = survival_power_integral(dist, n, tol)
    assert res.converged and res.error_bound <= tol
    assert abs(res.value - exact) <= res.error_bound + 8 * EPS * exact


def test_uniform_rounding_is_within_two_ulp():
    # the bound leaves out the rounding of the final sum, so 13 of these
    # errors exceed it; the errors themselves stay within 1.42 ulp (n = 37)
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
    assert abs(res.value - exact) <= res.error_bound + 8 * EPS * exact


@pytest.mark.parametrize("n,limit", [(10, 50), (10**6, 120)])
def test_nmin_evaluation_count(n, limit):
    # one walk over the grid's boundaries, then 21 evaluations per panel of
    # the G10/K21 rule (three separate geometric walks made 69 and 233)
    counted, calls = _counting(half_normal())
    res = survival_power_integral(counted, n, 1e-10)
    assert res.converged
    assert len(calls) <= limit


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
    assert abs(res.value - exact) <= res.error_bound + 8 * EPS * exact


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["exponential", "uniform01", "power_law", "heavy_tail", "half_normal"]),
       param=st.floats(min_value=0.0, max_value=1.0),
       n=st.integers(min_value=1, max_value=10**15),
       hn=st.sampled_from(sorted(ERFC_POWER_INTEGRAL)),
       tol=st.sampled_from([1e-300, 1e-30, 1e-18]))
@example(family="half_normal", param=0.0, n=10, hn=10, tol=1e-300)
# n alpha = 1.41: no boundary below 1e308 bounds the tail by 1e-300
@example(family="heavy_tail", param=0.5, n=2, hn=1, tol=1e-300)
def test_unreachable_tolerance_ends_in_bounded_work(family, param, n, hn, tol):
    # the rounding noise of the panel estimate lies above 4e-16 of the value,
    # so most panels want splitting: the leaf budget must end the call, and
    # the result says whether its bound met tol
    param = {"exponential": 1e-3 * 1e6**param, "power_law": 1.01 * (20 / 1.01)**param,
             "heavy_tail": 0.05 * 200.0**param}.get(family, param)
    if family == "half_normal":
        n = hn
    assume(family != "heavy_tail" or n * param >= 1.2)
    dist, exact = _exact(family, param, n)
    counted, _ = _counting(dist, limit=50_000)
    t0 = time.perf_counter()
    res = survival_power_integral(counted, n, tol)
    assert time.perf_counter() - t0 < 5.0
    assert abs(res.value - exact) <= res.error_bound + 8 * EPS * exact
    assert res.converged == (res.error_bound <= tol)
    if (family, n, tol) == ("half_normal", 10, 1e-300):
        assert res.converged is False
        assert abs(res.value - ERFC_POWER_INTEGRAL[10]) <= 1e-15
        # the budget goes to the panels from the left, where the mass sits;
        # spent from the right, it leaves a bound near 1e-13
        assert res.error_bound <= 1e-17
