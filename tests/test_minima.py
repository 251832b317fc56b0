"""Expected-minimum routes: quadrature values, asymptotic law, and the
exact gamma-ratio relation between the Gaussian and sphere quantities."""

import math

import pytest

from spheremin.distributions import exponential, half_normal, heavy_tail, power_law, uniform01
from spheremin.errors import HypothesisViolatedError, NonConvergentError
from spheremin.minima import asymptotic_min, emin, emin_asymptotic, expected_min, nmin

INV_SQRT_PI = 0.5641895835477563
NMIN_2 = 0.3304946062926472          # mpmath: integral of erfc^2
EMIN_2 = 0.3729232285780566          # (4 - 2 sqrt 2)/pi, circle-integral oracle
SQRT_PI_HALF = 0.8862269254527580


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


class TestEmin:
    def test_n1_exact(self):
        # S^0 = {+1, -1}: the smallest coordinate magnitude is always 1
        assert emin(1).value == pytest.approx(1.0, abs=1e-12)

    def test_n2_circle_oracle(self):
        assert emin(2).value == pytest.approx(EMIN_2, abs=1e-10)

    def test_strictly_decreasing(self):
        vals = [emin(n, 1e-12).value for n in range(1, 101)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

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

    def test_divergent(self):
        with pytest.raises(NonConvergentError):
            expected_min(heavy_tail(0.5), 1)


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

    def test_ratio_converges_half_normal(self):
        n = 1000
        ratio = asymptotic_min(half_normal(), n).value / nmin(n, 1e-12).value
        assert 0.99 <= ratio <= 1.01


class TestEminAsymptotic:
    def test_n1(self):
        assert emin_asymptotic(1).value == pytest.approx(math.pi / 4, rel=1e-13)

    def test_matches_quadrature_at_large_n(self):
        n = 10**4
        approx = emin_asymptotic(n).value
        exact = emin(n, 1e-13).value
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_nmin_emin_ratio_is_inverse_gamma_ratio(self):
        # nmin/emin = Gamma((n+1)/2)/Gamma(n/2) ~ sqrt((n+1)/2)
        from spheremin.special import gamma_ratio
        for n in (10, 1000, 10**6):
            ratio = 1.0 / gamma_ratio(n, 1)
            assert ratio == pytest.approx(math.sqrt((n + 1) / 2.0), rel=2.0 / n)


def test_theorem2_residual_decreases():
    tgt = SQRT_PI_HALF
    residuals = [abs((n + 1) * nmin(n, 1e-13).value - tgt)
                 for n in (100, 1000, 10**4, 10**5)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
