"""Distribution invariants, each stated through the two things the
computations read, log_survival and density_at_zero: agreement with
scipy.stats, the range and monotonicity of the CDF 1 - exp(log_survival),
unit total mass, and f(0+) as the one-sided derivative of that CDF."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from spheremin.distributions import (
    Distribution,
    exponential,
    half_normal,
    heavy_tail,
    power_law,
    uniform01,
)
from spheremin.quadrature import survival_power_integral

# every model beside its scipy.stats reference
CASES = [
    (half_normal(), stats.halfnorm(scale=2**-0.5)),
    (exponential(1.0), stats.expon(scale=1.0)),
    (exponential(2.0), stats.expon(scale=0.5)),
    (uniform01(), stats.uniform()),
    (power_law(2.0), stats.powerlaw(2.0)),
    (heavy_tail(1.0), stats.lomax(1.0)),
    (heavy_tail(0.5), stats.lomax(0.5)),
]
ALL = [dist for dist, _ in CASES]
REFERENCE = {dist.name: ref for dist, ref in CASES}


def cdf(dist, y):
    return -math.expm1(dist.log_survival(y))


def interior_grid(dist):
    hi = dist.support_upper if math.isfinite(dist.support_upper) else 10.0
    return np.linspace(1e-4, hi - 1e-4, 50)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
class TestCommonInvariants:
    def test_cdf_zero_at_origin(self, dist):
        assert cdf(dist, 0.0) == 0.0

    def test_cdf_in_unit_interval_and_nondecreasing(self, dist):
        vals = [cdf(dist, float(y)) for y in interior_grid(dist)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_survival_complements_cdf(self, dist):
        ref = REFERENCE[dist.name]
        for y in interior_grid(dist):
            s = math.exp(dist.log_survival(float(y)))
            assert ref.cdf(y) + s == pytest.approx(1.0, abs=1e-12)

    def test_log_survival_matches_survival(self, dist):
        ref = REFERENCE[dist.name]
        for y in interior_grid(dist):
            assert dist.log_survival(float(y)) == pytest.approx(ref.logsf(y), rel=1e-12, abs=1e-12)
        assert dist.density_at_zero == ref.pdf(0.0)

    def test_density_matches_cdf_derivative(self, dist):
        h = 1e-7
        assert cdf(dist, h) / h == pytest.approx(dist.density_at_zero, abs=1e-6)

    def test_density_integrates_to_one(self, dist):
        # the CDF reaches 1 at the top of the support
        top = dist.support_upper if math.isfinite(dist.support_upper) else 1e30
        assert cdf(dist, top) == pytest.approx(1.0, abs=1e-12)


class TestHalfNormal:
    def test_matches_erfc(self):
        d = half_normal()
        assert math.exp(d.log_survival(1.0)) == pytest.approx(0.15729920705028513, rel=1e-14)
        for y in np.linspace(0.0, 5.0, 100):
            assert math.exp(d.log_survival(float(y))) == pytest.approx(math.erfc(float(y)), rel=1e-13)

    def test_density_at_zero(self):
        assert half_normal().density_at_zero == pytest.approx(
            1.1283791670955126, rel=1e-15
        )

    def test_tail_metadata(self):
        assert half_normal().support_upper == math.inf


class TestExponential:
    def test_survival(self):
        assert math.exp(exponential(1.0).log_survival(1.0)) == pytest.approx(
            0.36787944117144233, rel=1e-15
        )

    def test_density_at_zero_is_rate(self):
        assert exponential(2.0).density_at_zero == 2.0

    def test_log_survival_exact_no_underflow(self):
        assert exponential(1.0).log_survival(700.0) == -700.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            exponential(0.0)
        with pytest.raises(ValueError):
            exponential(-1.0)


class TestUniform01:
    def test_values(self):
        d = uniform01()
        assert cdf(d, 0.25) == pytest.approx(0.25, rel=1e-15)
        assert d.log_survival(2.0) == -math.inf
        assert d.density_at_zero == 1.0
        assert d.support_upper == 1.0


class TestPowerLaw:
    def test_values(self):
        d = power_law(2.0)
        assert cdf(d, 0.5) == pytest.approx(0.25, rel=1e-15)
        assert math.exp(d.log_survival(0.5)) == pytest.approx(0.75, rel=1e-15)
        assert d.density_at_zero == 0.0

    def test_rejects_k_not_above_one(self):
        with pytest.raises(ValueError):
            power_law(1.0)


class TestHeavyTail:
    def test_values(self):
        d = heavy_tail(1.0)
        assert math.exp(d.log_survival(1.0)) == pytest.approx(0.5, rel=1e-15)
        assert d.density_at_zero == 1.0

    def test_tail_exponent_witness(self):
        # survival^n is integrable once n * alpha > 1; at n * alpha = 2 the
        # integral of (1+y)^(-n alpha) is exactly 1
        for alpha in (0.25, 0.5, 1.0, 2.0):
            res = survival_power_integral(heavy_tail(alpha), round(2.0 / alpha), 1e-8)
            assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            heavy_tail(0.0)


@pytest.mark.parametrize("family,param,n,b", [
    ("exponential", 0.5, 3, 2.0), ("exponential", 1e-3, 1, 16384.0), ("exponential", 1e3, 10**15, 1.6e-17),
    ("heavy_tail", 1.5, 1, 16.0), ("heavy_tail", 0.36, 3, 1024.0), ("heavy_tail", 1.08e-15, 10**15, 1e6),
    ("heavy_tail", 2.0, 10**308, 2.0**-1020),
    ("uniform01", None, 1, 0.25), ("uniform01", None, 10**6, 4.0 / (10**6 + 1)), ("uniform01", None, 7, 0.75),
    ("uniform01", None, 10**308, 2.0**-1022), ("uniform01", None, 3, 1.0),
])
def test_log_mean_residual_is_the_remainder(family, param, n, b):
    # exp(log_mean_residual(n, b)) = int_b^inf S^n / S(b)^n: 1/(n rate) for the
    # exponential, (1+b)/(n alpha - 1) for the heavy tail, (1-b)/(n+1) for
    # uniform01 (0 from b = 1 on), also where the float product n * alpha
    # overflows (n = 10^308)
    with mp.workdps(40):
        if family == "exponential":
            dist, exact = exponential(param), 1 / (n * mp.mpf(param))
        elif family == "uniform01":
            dist, exact = uniform01(), (1 - mp.mpf(b)) / (n + 1)
        else:
            dist, exact = heavy_tail(param), (1 + mp.mpf(b)) / (n * mp.mpf(param) - 1)
        assert mp.almosteq(mp.exp(dist.log_mean_residual(n, b)), exact, rel_eps=1e-13)


@pytest.mark.parametrize("upper", [-1.0, 0.0, math.nan])
def test_rejects_support_upper_not_above_zero(upper):
    # the support [0, support_upper] of a nonnegative variable must hold more
    # than 0: with -1.0 the quadrature returned a negative mean at n = 1 that
    # said it converged, after 500 panels, and overflowed at n = 1000; with
    # 0.0 it split to 500 panels
    with pytest.raises(ValueError, match="support_upper must be > 0"):
        Distribution("u", lambda y: -y, 1.0, upper)


@pytest.mark.parametrize("f0", [-1.0, math.nan, -math.inf])
def test_rejects_density_at_zero_below_zero(f0):
    # expected_min read -1.0 as an undefined f(0), so it took the first
    # width 1/sqrt(n), no G10 rung and no cusp floor
    with pytest.raises(ValueError, match="density_at_zero must be >= 0 or None"):
        Distribution("u", lambda y: -y, f0, math.inf)


@pytest.mark.parametrize("f0", [None, 0.0, 1.0, math.inf])
def test_accepts_density_at_zero_none_or_at_least_zero(f0):
    assert Distribution("u", lambda y: -y, f0, math.inf).density_at_zero == f0


def test_no_closed_form_remainder():
    for dist in (half_normal(), power_law(2.0)):
        assert dist.log_mean_residual is None


@given(st.floats(min_value=0.0, max_value=8.0))
def test_half_normal_cdf_survival_sum(y):
    assert math.erf(y) + math.exp(half_normal().log_survival(y)) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.1, max_value=5.0))
def test_exponential_log_survival_is_linear(y, rate):
    assert exponential(rate).log_survival(y) == -rate * y
