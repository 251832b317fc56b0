"""Sphere/Gaussian transfer: homogeneity of the built-ins, exactness of the
degree-2 gamma identity, agreement of both Monte Carlo routes with
closed-form oracles, and seed reproducibility."""

import math

import numpy as np
import pytest

from spheremin.minima import emin
from spheremin.special import gamma_ratio
from spheremin.transfer import (
    builtin_function,
    builtin_functions,
    sphere_mean_direct,
    sphere_mean_from_gaussian,
    transfer_identity_check,
)

EMIN_2 = 0.3729232285780566  # circle-integral oracle (4 - 2 sqrt 2)/pi
SAMPLES = 200_000


def test_builtin_values():
    x = np.array([3.0, -4.0])
    assert builtin_function("min-abs").eval(x) == 3.0
    assert builtin_function("max-abs").eval(x) == 4.0
    assert builtin_function("sum-abs").eval(x) == 7.0
    assert builtin_function("sum-squares").eval(x) == 25.0
    assert builtin_function("abs-first").eval(x) == 3.0
    assert builtin_function("min-abs").eval(np.array([0.0, 5.0])) == 0.0


def test_unknown_function_name():
    with pytest.raises(KeyError):
        builtin_function("nope")


@pytest.mark.parametrize("f", builtin_functions(), ids=lambda f: f.name)
def test_homogeneity(f):
    rng = np.random.default_rng(1)
    for n in (2, 3, 7):
        x = rng.standard_normal((20, n))
        base = f.eval(x)
        for lam in (0.5, 2.0, 10.0):
            scaled = f.eval(lam * x)
            np.testing.assert_allclose(scaled, lam**f.degree * base, rtol=1e-9)


def test_degree2_gamma_identity():
    # E[sum of squares] = n/2 under variance-1/2 coordinates, and
    # Gamma(n/2)/Gamma((n+2)/2) * (n/2) = 1 exactly
    for n in range(1, 1001):
        ratio = math.exp(math.lgamma(n / 2.0) - math.lgamma((n + 2) / 2.0))
        assert ratio * (n / 2.0) == pytest.approx(1.0, abs=1e-12)
        assert gamma_ratio(n, 2) * (n / 2.0) == pytest.approx(1.0, abs=1e-12)


class TestSphereMeanDirect:
    def test_sum_squares_is_exactly_one(self):
        est = sphere_mean_direct(builtin_function("sum-squares"), 7, 5000, 0)
        assert est.point == 1.0
        assert est.std_error == 0.0

    def test_min_abs_n1_is_exactly_one(self):
        est = sphere_mean_direct(builtin_function("min-abs"), 1, 100, 0)
        assert est.point == 1.0
        assert est.std_error == 0.0

    def test_min_abs_n2_covers_circle_oracle(self):
        est = sphere_mean_direct(builtin_function("min-abs"), 2, SAMPLES, 11)
        assert abs(est.point - EMIN_2) <= 4 * est.std_error

    def test_rejects_bad_args(self):
        f = builtin_function("min-abs")
        with pytest.raises(ValueError):
            sphere_mean_direct(f, 0, 100, 0)
        with pytest.raises(ValueError):
            sphere_mean_direct(f, 2, 1, 0)


class TestSphereMeanFromGaussian:
    def test_sum_squares_covers_one(self):
        est = sphere_mean_from_gaussian(builtin_function("sum-squares"), 5, SAMPLES, 3)
        assert abs(est.point - 1.0) <= 4 * est.std_error

    def test_min_abs_n2_covers_circle_oracle(self):
        est = sphere_mean_from_gaussian(builtin_function("min-abs"), 2, SAMPLES, 5)
        assert abs(est.point - EMIN_2) <= 4 * est.std_error

    def test_abs_first_n3_covers_half(self):
        # mean of |x_1| over S^2 is 1/2 by direct surface integration
        est = sphere_mean_from_gaussian(builtin_function("abs-first"), 3, SAMPLES, 7)
        assert abs(est.point - 0.5) <= 4 * est.std_error


class TestReproducibility:
    def test_fixed_seed_bitwise_identical(self):
        f = builtin_function("min-abs")
        a = sphere_mean_direct(f, 5, 50_000, 123)
        b = sphere_mean_direct(f, 5, 50_000, 123)
        assert a == b
        c = sphere_mean_from_gaussian(f, 5, 50_000, 123)
        d = sphere_mean_from_gaussian(f, 5, 50_000, 123)
        assert c == d

    def test_linearity_in_f(self):
        from spheremin.transfer import HomogeneousFunction
        f = builtin_function("min-abs")
        doubled = HomogeneousFunction("doubled", 1, lambda x: 2.0 * f.eval(x))
        a = sphere_mean_direct(f, 4, 20_000, 9)
        b = sphere_mean_direct(doubled, 4, 20_000, 9)
        assert b.point == pytest.approx(2.0 * a.point, rel=1e-15)

    def test_gaussian_scale_erased_by_normalization(self):
        # normalizing the draws makes the coordinate variance irrelevant
        f = builtin_function("min-abs")
        rng1 = np.random.default_rng(21)
        rng2 = np.random.default_rng(21)
        x = rng1.standard_normal((10_000, 4))
        y = rng2.standard_normal((10_000, 4)) * math.sqrt(0.5)
        u = x / np.linalg.norm(x, axis=1)[:, None]
        v = y / np.linalg.norm(y, axis=1)[:, None]
        np.testing.assert_allclose(f.eval(u), f.eval(v), rtol=1e-12)


class TestIdentityCheck:
    def test_min_abs_n10(self):
        rep = transfer_identity_check(builtin_function("min-abs"), 10, SAMPLES, 42)
        assert rep.agree and rep.z_score <= 4.0

    def test_max_abs_n3(self):
        rep = transfer_identity_check(builtin_function("max-abs"), 3, SAMPLES, 42)
        assert rep.agree

    def test_sum_squares_n7(self):
        rep = transfer_identity_check(builtin_function("sum-squares"), 7, SAMPLES, 42)
        assert rep.agree
        assert abs(rep.sphere_side.point - 1.0) < 1e-12


def test_emin_agrees_with_direct_mc():
    f = builtin_function("min-abs")
    for n, seed in ((2, 101), (5, 102), (10, 103)):
        est = sphere_mean_direct(f, n, SAMPLES, seed)
        ref = emin(n).value
        assert abs(est.point - ref) <= 4 * est.std_error
