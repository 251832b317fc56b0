"""Expected-minimum routes: quadrature values, asymptotic law, and the
exact gamma-ratio relation between the Gaussian and sphere quantities."""

import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import spheremin
from spheremin.distributions import exponential, half_normal, heavy_tail, power_law, uniform01
from spheremin.errors import HypothesisViolatedError, NonConvergentError
from spheremin.minima import asymptotic_min, emin, expected_min, nmin
from spheremin.special import gamma_ratio

INV_SQRT_PI = 0.5641895835477563
NMIN_2 = 0.3304946062926472          # mpmath: integral of erfc^2
EMIN_2 = 0.3729232285780566          # (4 - 2 sqrt 2)/pi, circle-integral oracle
SQRT_PI_HALF = 0.8862269254527580
EPS = 2.0**-52


class TestNmin:
    def test_n1(self):
        assert nmin(1).value == pytest.approx(INV_SQRT_PI, abs=1e-10)

    def test_n2(self):
        assert nmin(2).value == pytest.approx(NMIN_2, abs=1e-10)

    def test_method_and_bound(self):
        r = nmin(3)
        assert r.method == "quadrature"
        assert r.error_bound is not None and math.isfinite(r.error_bound)

    def test_large_n_scaling(self):
        n = 10**4
        assert (n + 1) * nmin(n, 1e-13).value == pytest.approx(SQRT_PI_HALF, abs=1e-3)

    @pytest.mark.parametrize("k", range(3, 16))
    def test_theorem2_residual_bound(self, k):
        # (n+1) nmin(n) -> sqrt(pi)/2 with a residual below 1.5/n^2; cutting
        # the tail below y = 1 where the integrand is still positive costs
        # 1.1e-7 of the value at n = 10^5
        n = 10**k
        residual = abs((n + 1) * nmin(n).value - SQRT_PI_HALF)
        assert residual <= 1.5 / n**2 + 4 * math.ulp(SQRT_PI_HALF)

    def test_truncation_point_sits_near_the_mass(self):
        # the mass lies within a few multiples of 1/(f(0) n) = 8.9e-7, and
        # the walk stops at 64 of them, once the tail is negligible beside
        # the value, long before the integrand underflows
        n = 10**6
        y_star = nmin(n).truncation_point
        assert y_star < 1.0
        assert n * y_star <= 100.0


class TestEmin:
    def test_n1_exact(self):
        # S^0 = {+1, -1}: the smallest coordinate magnitude is always 1
        assert emin(1).value == pytest.approx(1.0, abs=1e-12)

    def test_n2_circle_oracle(self):
        assert emin(2).value == pytest.approx(EMIN_2, abs=1e-10)

    def test_strictly_decreasing(self):
        vals = [emin(n, 1e-12).value for n in range(1, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("k", range(7, 16))
    def test_large_n_against_mpmath(self, k):
        # emin(n) (n+1) / [Gamma(n/2)/Gamma((n+1)/2)] = (n+1) nmin(n), which is
        # sqrt(pi)/2 within 1.5/n^2; a gamma factor taken from exp(lgamma -
        # lgamma) is 2.5 times too large at n = 10^15
        n = 10**k
        with mp.workdps(40):
            factor = mp.exp(mp.loggamma(mp.mpf(n) / 2) - mp.loggamma(mp.mpf(n + 1) / 2))
            scaled = float((n + 1) * mp.mpf(emin(n).value) / factor)
        assert abs(scaled - SQRT_PI_HALF) <= 1.5 / n**2 + 8 * EPS

    def test_million_against_mpmath_integral(self):
        # a 30-digit oracle: the integral of erfc(y)^n, split at y = 10^k/n,
        # where the integrand is e^-1.1, e^-11, e^-113 and e^-1129 (it stops
        # at the last), times the exact gamma factor
        n = 10**6
        with mp.workdps(30):
            points = [mp.mpf(0)] + [mp.mpf(10)**k / n for k in range(4)]
            integral = mp.quad(lambda y: mp.erfc(y)**n, points)
            oracle = integral * mp.gamma(mp.mpf(n) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
            r = emin(n)
            error = abs(mp.mpf(r.value) - oracle)
        assert r.converged
        assert error <= r.error_bound + 8 * math.ulp(r.value)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 100])
    def test_bound_carries_the_factor_rounding(self, n):
        # the bound holds with no ulp of slack: gamma_ratio(n, 1) is within 3
        # eps relative and the product rounds once more, so emin(2), 7.40e-17
        # off, overstepped nmin's bound times the factor, 4.37e-17
        with mp.workdps(40):
            points = [mp.mpf(0)] + [mp.mpf(10)**k / n for k in range(-1, 3)] + [mp.inf]
            integral = mp.quad(lambda y: mp.erfc(y)**n, points)
            oracle = integral * mp.gamma(mp.mpf(n) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
            r = emin(n)
            assert abs(mp.mpf(r.value) - oracle) <= r.error_bound
        assert r.converged

    @pytest.mark.parametrize("n,limit", [(12, 1.05e-11), (100, 1e-14)])
    def test_tail_bound_is_tight(self, n, limit):
        # at y* = 1.10 the chord tail of nmin(12) is 3.4e-13, where the
        # geometric bound 3b S(b)^n / (1 - r) was 2.8e-11: emin(12)'s bound
        # falls from 1.19e-11 to 1.75e-13, against an error of 1.05e-13, and
        # emin(100)'s from 1.48e-13 to 1.45e-15, against an error of 3.1e-19
        r = emin(n)
        assert r.converged
        assert r.error_bound <= limit

    def test_gamma_relation(self):
        # Gamma((n+1)/2) * emin(n) = Gamma(n/2) * nmin(n), via lgamma
        for n in range(1, 51):
            lhs = math.exp(math.lgamma((n + 1) / 2.0)) * emin(n).value
            rhs = math.exp(math.lgamma(n / 2.0)) * nmin(n).value
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestExpectedMin:
    def test_exponential(self):
        assert expected_min(exponential(1.0), 7).value == pytest.approx(1 / 7, abs=1e-10)

    def test_uniform(self):
        assert expected_min(uniform01(), 3).value == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("k", range(16))
    def test_exponential_large_n(self, k):
        # the walk stops where its tail fits the budget only at y >= 1, where
        # the integrand has underflowed, or where the tail is below 2^-60 of
        # the value; never at a boundary where the tail still fits the budget
        # but carries 1.8% of the value (n = 10^10)
        n = 10**k
        assert abs(n * expected_min(exponential(1.0), n).value - 1.0) <= 4 * math.ulp(1.0)

    @pytest.mark.parametrize("dist,n,alpha", [
        ("exponential(1e300)", 10**9, 1e300),
        ("heavy_tail(2.0)", 10**308, None),
    ], ids=["exponential", "heavy_tail"])
    def test_overflowing_first_width_returns(self, dist, n, alpha):
        # n f(0) overflows, so the first panel width 4/(n f(0) + 1) is 0 unless
        # floored; run apart, with a time limit and an address-space cap, so
        # that a grid that never grows fails instead of filling the memory
        code = ("import time; from spheremin import distributions as d, minima; "
                f"t = time.perf_counter(); r = minima.expected_min(d.{dist}, {n}); "
                "print(time.perf_counter() - t, r.value.hex(), r.error_bound.hex(), r.converged)")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spheremin.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert out.returncode == 0, out.stderr
        seconds, value, bound, converged = out.stdout.split()
        # exponential(rate) has mean 1/(n rate); heavy_tail(2) has 1/(2n - 1)
        exact = Fraction(1, n) / Fraction(alpha) if alpha else Fraction(1, 2 * n - 1)
        assert float(seconds) < 5.0 and converged == "True"
        assert abs(Fraction(float.fromhex(value)) - exact) <= Fraction(float.fromhex(bound))

    def test_divergent(self):
        with pytest.raises(NonConvergentError):
            expected_min(heavy_tail(0.5), 1)

    def test_unconverged_is_reported(self):
        # a mean of 1e8 cannot be bounded to 1e-10, 1e-18 of its value
        r = expected_min(exponential(1e-8), 1)
        assert r.converged is False
        assert r.error_bound > 1e-10

    def test_converged_is_passed_through(self):
        assert emin(10).converged is True
        assert nmin(10).converged is True
        assert asymptotic_min(exponential(1.0), 10).converged is None


class TestAsymptoticMin:
    def test_plug_in(self):
        r = asymptotic_min(exponential(2.0), 9)
        assert r.value == 0.05
        assert r.method == "asymptotic"
        assert r.error_bound is None  # no error-term information exists

    def test_half_normal_matches_limit_constant(self):
        r = asymptotic_min(half_normal(), 99)
        assert r.value == pytest.approx(SQRT_PI_HALF / 100.0, rel=1e-13)

    def test_density_violation(self):
        with pytest.raises(HypothesisViolatedError) as exc:
            asymptotic_min(power_law(2.0), 10)
        assert exc.value.condition == "density"

    def test_undefined_density_violation(self):
        from dataclasses import replace
        broken = replace(half_normal(), density_at_zero=None)
        with pytest.raises(HypothesisViolatedError):
            asymptotic_min(broken, 5)

    def test_uniform_asymptotic_equals_exact(self):
        # for uniform01 the leading term is the exact answer
        for n in (1, 5, 50, 500):
            a = asymptotic_min(uniform01(), n).value
            q = expected_min(uniform01(), n, 1e-12).value
            assert a == pytest.approx(q, abs=1e-11)

    def test_ratio_converges_exponential(self):
        for n in (10, 100, 1000):
            a = asymptotic_min(exponential(1.0), n).value
            q = expected_min(exponential(1.0), n).value
            assert a / q == pytest.approx(n / (n + 1), rel=1e-8)

    def test_large_density_times_n_does_not_overflow(self):
        # f(0)(n+1) overflows to inf, where 1/(f(0)(n+1)) would read 0.0
        n = 10**9
        a = asymptotic_min(exponential(1e300), n).value
        q = expected_min(exponential(1e300), n)
        assert q.converged
        assert abs(a / q.value - 1.0) <= 2.0 / (n + 1)

    def test_ratio_converges_half_normal(self):
        n = 1000
        ratio = asymptotic_min(half_normal(), n).value / nmin(n, 1e-12).value
        assert 0.99 <= ratio <= 1.01


class TestEminAsymptotic:
    # the sphere's large-n law: the transfer factor times the half-normal one

    def test_n1(self):
        approx = gamma_ratio(1, 1) * asymptotic_min(half_normal(), 1).value
        assert approx == pytest.approx(math.pi / 4, rel=1e-13)

    def test_matches_quadrature_at_large_n(self):
        n = 10**4
        approx = gamma_ratio(n, 1) * asymptotic_min(half_normal(), n).value
        exact = emin(n, 1e-13).value
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_nmin_emin_ratio_is_inverse_gamma_ratio(self):
        # nmin/emin = Gamma((n+1)/2)/Gamma(n/2) ~ sqrt((n+1)/2)
        for n in (10, 1000, 10**6):
            ratio = 1.0 / gamma_ratio(n, 1)
            assert ratio == pytest.approx(math.sqrt((n + 1) / 2.0), rel=2.0 / n)


def test_theorem2_residual_decreases():
    tgt = SQRT_PI_HALF
    residuals = [abs((n + 1) * nmin(n, 1e-13).value - tgt)
                 for n in (100, 1000, 10**4, 10**5)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
