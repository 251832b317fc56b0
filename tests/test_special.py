"""Special-function accuracy against frozen high-precision oracle values
(computed with mpmath at 40 digits before the implementation was written)."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spheremin.special import gamma_ratio, log_erfc

# mpmath oracles, 40 digits, rounded to binary64
ERFC_1 = 0.15729920705028513
ERFC_10 = 2.0884875837625447e-45
LOG_ERFC_1 = -1.8496055099332482
LOG_ERFC_26 = -679.8311997631942
LOG_ERFC_100 = -10005.177585122664
LOG_ERFC_1E4 = -100000009.78270532
SQRT_PI = 1.7724538509055159
EPS = 2.0**-52


class TestErfc:
    """erfc as the half-normal survival function, exp(log_erfc(y))."""

    def test_zero(self):
        assert math.exp(log_erfc(0.0)) == 1.0

    @pytest.mark.parametrize("y,expected", [(1.0, ERFC_1), (10.0, ERFC_10)])
    def test_oracle_values(self, y, expected):
        assert math.exp(log_erfc(y)) == pytest.approx(expected, rel=1e-14)

    def test_strictly_decreasing(self):
        # in log space there are no subnormal plateaus: strict all the way,
        # well past y ~ 26.6 where erfc itself underflows to 0
        ys = np.arange(0.0, 30.0, 1e-3)
        vals = [log_erfc(float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and math.isfinite(vals[-1])

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            log_erfc(bad)


class TestLogErfc:
    def test_zero(self):
        assert log_erfc(0.0) == 0.0

    @pytest.mark.parametrize(
        "y,expected",
        [(1.0, LOG_ERFC_1), (26.0, LOG_ERFC_26), (100.0, LOG_ERFC_100), (1e4, LOG_ERFC_1E4)],
    )
    def test_oracle_values(self, y, expected):
        assert log_erfc(y) == pytest.approx(expected, rel=1e-13, abs=1e-12)

    def test_matches_erfc_on_grid(self):
        # |exp(log_erfc) - erfc| <= 1e-14 wherever erfc > 1e-300
        for y in np.geomspace(1e-8, 20.0, 300):
            e = math.erfc(float(y))
            if e > 1e-300:
                assert abs(math.exp(log_erfc(float(y))) - e) <= 1e-14

    @given(st.floats(min_value=1e-8, max_value=25.0))
    def test_consistent_with_erfc(self, y):
        assert math.exp(log_erfc(y)) == pytest.approx(math.erfc(y), rel=1e-12)

    def test_regime_boundaries_are_continuous(self):
        for edge in (0.5, 25.0):
            lo = log_erfc(edge * (1 - 1e-12))
            hi = log_erfc(edge * (1 + 1e-12))
            assert lo == pytest.approx(hi, rel=1e-10, abs=1e-10)


def _mp_ratio(n, d):
    """Gamma(n/2) / Gamma((n+d)/2) from 40-digit mpmath."""
    with mp.workdps(40 + len(str(n))):
        return mp.exp(mp.loggamma(mp.mpf(n) / 2) - mp.loggamma(mp.mpf(n + d) / 2))


class TestGammaRatio:
    def test_d_zero_is_exactly_one(self):
        assert gamma_ratio(5, 0) == 1.0

    def test_known_values(self):
        assert gamma_ratio(2, 2) == 1.0  # Gamma(1) / Gamma(2)
        assert gamma_ratio(2, 18) == pytest.approx(1.0 / 362880.0, rel=1e-13)
        assert gamma_ratio(1, 19) == pytest.approx(SQRT_PI / 362880.0, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            gamma_ratio(bad, 1)

    def test_small_cases(self):
        assert gamma_ratio(1, 1) == pytest.approx(SQRT_PI, rel=1e-13)
        assert gamma_ratio(2, 1) == pytest.approx(2.0 / SQRT_PI, rel=1e-13)

    def test_recurrence(self):
        # Gamma(x+1) = x Gamma(x) rewritten in half-ratios
        for n in range(1, 1001):
            prod = gamma_ratio(n, 1) * gamma_ratio(n + 1, 1)
            assert prod == pytest.approx(2.0 / n, rel=1e-12)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_recurrence_random_n(self, n):
        assert gamma_ratio(n, 1) * gamma_ratio(n + 1, 1) == pytest.approx(
            2.0 / n, rel=1e-12
        )

    def test_large_argument_limit(self):
        # gamma_ratio(n,1) * sqrt((n+1)/2) -> 1
        n = 10**6
        assert abs(gamma_ratio(n, 1) * math.sqrt((n + 1) / 2.0) - 1.0) < 1e-5

    def test_large_degree_ends_in_underflow(self):
        # the product loop stops at its first 0.0, some 180 steps in
        assert gamma_ratio(1, 10**18) == 0.0
        assert gamma_ratio(2, 10**18) == 0.0
        assert gamma_ratio(3, 10**18 + 1) == 0.0

    def test_strictly_decreasing_in_n(self):
        vals = [gamma_ratio(n, 1) for n in range(1, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_consistency_with_ln_gamma(self):
        for n in range(1, 20):
            direct = math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))
            assert gamma_ratio(n, 1) * direct == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("n,d", [(0, 1), (-3, 1), (2, -1), (1.5, 1)])
    def test_rejects_bad_args(self, n, d):
        with pytest.raises(ValueError):
            gamma_ratio(n, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_small_n_against_mpmath(self, d):
        # the upward steps below x = 8 and the series just above it
        for n in range(1, 2001):
            exact = _mp_ratio(n, d)
            assert abs(gamma_ratio(n, d) - exact) <= 3 * EPS * exact, n

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_n_against_mpmath(self, d):
        # the series holds its accuracy out to n = 1e300, where a difference
        # of two ln Gamma values would lose 3.5% already at n = 10^13
        ns = list(range(1001, 1041)) + [10**k + j for k in range(4, 301, 4) for j in (0, 1)]
        for n in ns:
            exact = _mp_ratio(n, d)
            if exact < 2.3e-308:  # beyond the normal floats (d = 3 at n > 1e205)
                continue
            assert abs(gamma_ratio(n, d) - exact) <= 3 * EPS * exact, n
