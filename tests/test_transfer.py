"""Sphere/Gaussian transfer: homogeneity of the built-ins, exactness of the
degree-2 gamma identity, agreement of both Monte Carlo routes with
closed-form oracles, seed reproducibility, and the sampling kernel's
pinned bits, memory bound and checks."""

import math
import tracemalloc

import numpy as np
import pytest

from spheremin.minima import emin
from spheremin.special import gamma_ratio
from spheremin import transfer
from spheremin.transfer import (
    HomogeneousFunction,
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


ROUTES = {r.__name__: r for r in (sphere_mean_from_gaussian, sphere_mean_direct)}

# Estimates recorded bit for bit before the sampling kernel was blocked:
# min-abs at n=2 spans two chunks, sum-abs at n=1000 ends each chunk in a
# partial block of 35 rows, and sum-squares at n=7 folds its columns.  The
# Gaussian rows pin the kernel's (mean, se) before the gamma factor, which
# test_special checks against mpmath on its own.
PINNED = [
    ("min-abs", 2, 2_001_000, 2024, "sphere_mean_from_gaussian",
     "0x1.522efcfd171b2p-2", "0x1.8eef383535e26p-13"),
    ("min-abs", 2, 2_001_000, 2024, "sphere_mean_direct",
     "0x1.7d954fbc2fa5dp-2", "0x1.320c92cda9840p-13"),
    ("sum-abs", 1000, 4_100, 2025, "sphere_mean_from_gaussian",
     "0x1.1a4b89fedbca3p+9", "0x1.ae2261df83478p-3"),
    ("sum-abs", 1000, 4_100, 2025, "sphere_mean_direct",
     "0x1.93e05e21d811fp+4", "0x1.b2337ac0b7970p-9"),
    ("sum-squares", 7, 5_000, 2026, "sphere_mean_from_gaussian",
     "0x1.bed0ecf9c3622p+1", "0x1.a995c43b40e8ap-6"),
    ("sum-squares", 7, 5_000, 2026, "sphere_mean_direct",
     "0x1.0000000000000p+0", "0x0.0p+0"),
]


@pytest.mark.parametrize("name, n, samples, seed, route, point, std_error", PINNED)
def test_estimates_are_pinned(name, n, samples, seed, route, point, std_error):
    f = builtin_function(name)
    est = ROUTES[route](f, n, samples, seed)
    bits = (est.point, est.std_error)
    if route == "sphere_mean_from_gaussian":
        mean, se = transfer._sample_mean(f, n, samples, seed, normalise=False)
        factor = gamma_ratio(n, f.degree)
        assert bits == (factor * mean, factor * se)
        bits = (mean, se)
    assert (bits[0].hex(), bits[1].hex(), est.samples) == (point, std_error, samples)


REDUCTIONS = {
    "min-abs": lambda x: np.minimum.reduce(np.abs(x), axis=-1),
    "max-abs": lambda x: np.maximum.reduce(np.abs(x), axis=-1),
    "sum-abs": lambda x: np.add.reduce(np.abs(x), axis=-1),
    "sum-squares": lambda x: np.add.reduce(x * x, axis=-1),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_builtin_eval_matches_numpy_reduce(name, n):
    # magnitudes spread over 16 decades make any change of summation order show
    rng = np.random.default_rng(n)
    f = builtin_function(name)
    for shape in ((n,), (10_000, n), (3, 4, n)):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        assert _same_bits(f.eval(x), REDUCTIONS[name](x)), shape


@pytest.mark.parametrize("n", range(1, 13))
def test_norm_matches_linalg(n):
    x = np.random.default_rng(n).standard_normal((10_000, n))
    assert _same_bits(np.sqrt(transfer._sum_squares(x)), np.linalg.norm(x, axis=1))


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
@pytest.mark.parametrize("bad_eval", [
    lambda x: 1.0,
    lambda x: x,
    lambda x: np.abs(x[:-1, 0]),
], ids=["scalar", "block", "short"])
def test_eval_must_return_one_value_per_row(route, bad_eval):
    f = HomogeneousFunction("bad-shape", 1, bad_eval)
    with pytest.raises(ValueError, match="bad-shape"):
        route(f, 3, 100, 0)


@pytest.mark.parametrize("degree", [-1, 1.5])
def test_bad_degree_is_rejected_before_sampling(degree):
    def never(x):
        raise AssertionError("eval called before the degree was checked")

    f = HomogeneousFunction("bad-degree", degree, never)
    with pytest.raises(ValueError, match="d must be"):
        sphere_mean_from_gaussian(f, 3, 100, 0)


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
@pytest.mark.parametrize("n", [2, 1000])
def test_memory_is_bounded_by_blocks(route, n):
    # 4M coordinates; one chunk's f-values take 16 MB at n=2
    f = builtin_function("min-abs")
    tracemalloc.start()
    try:
        route(f, n, 4_000_000 // n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


class _ZeroFirstRow:
    """A generator whose first block of draws starts with an all-zero row."""

    def __init__(self, rng):
        self.rng = rng
        self.zeroed = False
        self.redraws = 0

    def standard_normal(self, size=None, out=None):
        if out is None:
            self.redraws += 1
            return self.rng.standard_normal(size)
        self.rng.standard_normal(out=out)
        if not self.zeroed:
            out[0] = 0.0
            self.zeroed = True
        return out


def test_zero_norm_row_is_redrawn(monkeypatch):
    default_rng = np.random.default_rng
    stubs = []

    def stub(seed):
        stubs.append(_ZeroFirstRow(default_rng(seed)))
        return stubs[-1]

    monkeypatch.setattr(transfer.np.random, "default_rng", stub)
    est = sphere_mean_direct(builtin_function("min-abs"), 3, 1000, 0)
    assert math.isfinite(est.point) and math.isfinite(est.std_error)
    est = sphere_mean_direct(builtin_function("sum-squares"), 3, 1000, 0)
    assert est.point == 1.0
    assert all(s.zeroed and s.redraws == 1 for s in stubs)
