"""Survival-power quadrature against closed forms and frozen oracles.

Closed forms: exponential(rate) gives 1/(n*rate); uniform01 gives
1/(n+1); heavy_tail(alpha) gives 1/(n*alpha - 1) when n*alpha > 1.
Half-normal n=2 is the mpmath oracle for the integral of erfc^2.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from spheremin.distributions import exponential, half_normal, heavy_tail, uniform01
from spheremin.errors import InvalidToleranceError, NonConvergentError
from spheremin.quadrature import survival_power_integral

INV_SQRT_PI = 0.5641895835477563
ERFC_SQUARED_INTEGRAL = 0.3304946062926472  # mpmath, (2-sqrt(2))/sqrt(pi)

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
            loose.abs_error_bound, tight.abs_error_bound
        )


def test_result_fields():
    res = survival_power_integral(half_normal(), 5, 1e-10)
    assert res.value >= 0.0
    assert res.abs_error_bound >= 0.0
    assert res.panels >= 1
    assert res.converged == (res.abs_error_bound <= 1e-10)


def test_tail_scan_stops_once_blocks_underflow():
    # the dyadic tail scan ends at the first block whose bound is 0, not
    # after a fixed 600 blocks
    calls = []
    base = half_normal()

    def counted(y):
        calls.append(y)
        return base.log_survival(y)

    res = survival_power_integral(replace(base, log_survival=counted), 10, 1e-10)
    assert res.value == survival_power_integral(base, 10, 1e-10).value
    assert len(calls) <= 300


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
