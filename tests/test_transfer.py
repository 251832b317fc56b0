"""Sphere/Gaussian transfer: homogeneity of the built-ins, exactness of the
degree-2 gamma identity, agreement of both Monte Carlo routes with
closed-form oracles, seed reproducibility, the sampling kernel's pinned
bits, memory bound and checks, and the two-thread transfer check."""

import gc
import math
import sys
import threading
import tracemalloc
import weakref

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

    def test_routes_apart_with_no_spread_disagree(self):
        # a constant tagged degree 1 has no spread on either route, but the
        # Gaussian route scales it by Gamma(3/2)/Gamma(2) = 0.886
        f = HomogeneousFunction("one", 1, lambda x: np.ones(x.shape[:-1]))
        rep = transfer_identity_check(f, 3, 1000, 0)
        assert (rep.gaussian_side.std_error, rep.sphere_side.std_error) == (0.0, 0.0)
        assert rep.z_score == math.inf and not rep.agree


@pytest.mark.parametrize("a, b, spread, z, agree", [
    (0.5, 0.5, 0.0, 0.0, True),
    (0.5, 0.5 + 1e-12, 0.0, math.inf, False),
    (1.0, 0.0, 0.25, 4.0, True),
    (0.0, 1.0, 0.2, 5.0, False),
])
def test_agreement_rule(a, b, spread, z, agree):
    assert transfer._agreement(a, b, spread) == (z, agree)


def test_emin_agrees_with_direct_mc():
    f = builtin_function("min-abs")
    for n, seed in ((2, 101), (5, 102), (10, 103)):
        est = sphere_mean_direct(f, n, SAMPLES, seed)
        ref = emin(n).value
        assert abs(est.point - ref) <= 4 * est.std_error


ROUTES = {r.__name__: r for r in (sphere_mean_from_gaussian, sphere_mean_direct)}

# Estimates recorded bit for bit from the block-summing kernel, which
# _loop_reference recomputes: min-abs at n=2 spans 122 full blocks of 16384
# rows and ends in a partial one of 2152, sum-abs at n=1000 ends in a
# partial block of 4 rows after 128 of 32, and sum-squares at n=7 folds its
# columns over one block of 4681 rows and one of 319.  The Gaussian rows pin
# the kernel's (mean, se) before the gamma factor, which test_special checks
# against mpmath on its own.
PINNED = [
    ("min-abs", 2, 2_001_000, 2024, "sphere_mean_from_gaussian",
     "0x1.522efcfd171b2p-2", "0x1.8eef383535e26p-13"),
    ("min-abs", 2, 2_001_000, 2024, "sphere_mean_direct",
     "0x1.7d954fbc2fa5ep-2", "0x1.320c92cda983dp-13"),
    ("sum-abs", 1000, 4_100, 2025, "sphere_mean_from_gaussian",
     "0x1.1a4b89fedbca2p+9", "0x1.ae2261df8477bp-3"),
    ("sum-abs", 1000, 4_100, 2025, "sphere_mean_direct",
     "0x1.93e05e21d811ep+4", "0x1.b2337ac0bc4c7p-9"),
    ("sum-squares", 7, 5_000, 2026, "sphere_mean_from_gaussian",
     "0x1.bed0ecf9c3620p+1", "0x1.a995c43b40e91p-6"),
    ("sum-squares", 7, 5_000, 2026, "sphere_mean_direct",
     "0x1.0000000000000p+0", "0x0.0p+0"),
]


def _loop_reference(f, n, samples, seed, normalise):
    """The kernel's (mean, se), drawn in one call and summed by np.sum over
    groups of 2^15 // n rows, the group sums added by math.fsum."""
    x = np.random.default_rng(seed).standard_normal((samples, n))
    x = x / np.linalg.norm(x, axis=1)[:, None] if normalise else x * math.sqrt(0.5)
    v = np.asarray(f.eval(x), dtype=np.float64)
    group = max(1, 2**15 // n)
    total = math.fsum(float(np.sum(v[i:i + group])) for i in range(0, samples, group))
    total_sq = math.fsum(float(np.sum(v[i:i + group] ** 2)) for i in range(0, samples, group))
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return mean, math.sqrt(var / samples)


@pytest.mark.parametrize("name, n, samples, seed, route, point, std_error", PINNED)
def test_estimates_are_pinned(name, n, samples, seed, route, point, std_error):
    f = builtin_function(name)
    est = ROUTES[route](f, n, samples, seed)
    bits = (est.point, est.std_error)
    gaussian = route == "sphere_mean_from_gaussian"
    if gaussian:
        mean, se = transfer._sample_mean(f, n, samples, seed, normalise=False)
        factor = gamma_ratio(n, f.degree)
        assert bits == (factor * mean, factor * se)
        bits = (mean, se)
    assert bits == _loop_reference(f, n, samples, seed, normalise=not gaussian)
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


CALLERS = {**ROUTES, "transfer_identity_check": transfer_identity_check}


@pytest.mark.parametrize("route", CALLERS.values(), ids=CALLERS)
@pytest.mark.parametrize("bad_eval", [
    lambda x: 1.0,
    lambda x: x,
    lambda x: np.abs(x[:-1, 0]),
], ids=["scalar", "block", "short"])
def test_eval_must_return_one_value_per_row(route, bad_eval):
    # the transfer check raises its worker's error in the caller
    f = HomogeneousFunction("bad-shape", 1, bad_eval)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="bad-shape"):
        route(f, 3, 100, 0)
    assert threading.active_count() == threads


@pytest.mark.parametrize("degree", [-1, 1.5])
def test_bad_degree_is_rejected_before_sampling(degree):
    def never(x):
        raise AssertionError("eval called before the degree was checked")

    f = HomogeneousFunction("bad-degree", degree, never)
    with pytest.raises(ValueError, match="d must be"):
        sphere_mean_from_gaussian(f, 3, 100, 0)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="d must be"):
        transfer_identity_check(f, 3, 100, 0)
    assert threading.active_count() == threads


# a single route holds one block; the transfer check runs two at once
MEMORY_BOUNDS = {sphere_mean_from_gaussian: 1.25, sphere_mean_direct: 1.25,
                 transfer_identity_check: 2.5}


@pytest.mark.parametrize("route", MEMORY_BOUNDS, ids=lambda r: r.__name__)
@pytest.mark.parametrize("n", [1, 2, 1000, 2**17])
def test_memory_is_bounded_by_blocks(route, n):
    # 4M coordinates, whose f-values alone would take 32 MB at n=1;
    # tracemalloc traces the allocations of every thread.  A block holds
    # max(2^15, n) coordinates, so past n = 2^15 the bound grows with n
    f = builtin_function("min-abs")
    tracemalloc.start()
    try:
        route(f, n, 4_000_000 // n, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_BOUNDS[route] * max(1, n / 2**15) * 2**20


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
def test_values_are_summed_as_float64(route):
    f = builtin_function("min-abs")
    narrow = HomogeneousFunction("narrow", 1, lambda x: f.eval(x).astype(np.float32))
    wide = HomogeneousFunction(
        "wide", 1, lambda x: f.eval(x).astype(np.float32).astype(np.float64))
    assert route(narrow, 3, 70_000, 5) == route(wide, 3, 70_000, 5)


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
def test_bool_indicator_is_summed_as_float64(route):
    # P(x_1 > 0) = 1/2 on the sphere and under the Gaussian
    f = HomogeneousFunction("first-positive", 0, lambda x: x[..., 0] > 0)
    est = route(f, 3, 70_000, 6)
    assert abs(est.point - 0.5) <= 6 * est.std_error


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


def _serial_check(f, n, samples, seed):
    """The two estimates of transfer_identity_check, one route after the
    other on the calling thread."""
    gauss_seed, sphere_seed = np.random.SeedSequence(seed).spawn(2)
    return (sphere_mean_from_gaussian(f, n, samples, gauss_seed),
            sphere_mean_direct(f, n, samples, sphere_seed))


class _RouteError(RuntimeError):
    """A route's error; unlike RuntimeError, it takes a weak reference."""


def _route(x):
    """The route that drew the block x: the direct route's rows lie on the
    unit sphere, the Gaussian ones do not."""
    return "direct" if np.allclose(np.sum(x * x, axis=-1), 1.0) else "gaussian"


def _failing_eval(failing):
    """An eval that raises _RouteError(route) on the routes in failing."""
    def eval_(x):
        route = _route(x)
        if route in failing:
            raise _RouteError(route)
        return np.abs(x[..., 0])
    return eval_


def _raised_error_ref(f):
    """A weak reference to the error that transfer_identity_check raises,
    taken here so that no frame of the test itself holds the error."""
    try:
        transfer_identity_check(f, 3, 100, 0)
    except _RouteError as exc:
        assert exc.args == ("gaussian",)
        return weakref.ref(exc)
    raise AssertionError("transfer_identity_check did not raise")


class TestConcurrentCheck:
    @pytest.mark.parametrize("name, n", [("min-abs", 2), ("sum-squares", 7), ("max-abs", 40),
                                         ("abs-first", 1000)])
    def test_report_is_the_serial_one(self, name, n):
        f = builtin_function(name)
        threads = threading.active_count()
        rep = transfer_identity_check(f, n, 70_000, 17)
        assert threading.active_count() == threads
        assert (rep.gaussian_side, rep.sphere_side) == _serial_check(f, n, 70_000, 17)

    @pytest.mark.parametrize("failing", [{"gaussian"}, {"direct"}, {"gaussian", "direct"}],
                             ids=["gaussian", "direct", "both"])
    def test_route_errors_are_raised_gaussian_first(self, failing):
        # the direct route's rows lie on the unit sphere, the Gaussian ones do not
        def eval_(x):
            route = "direct" if np.allclose(np.sum(x * x, axis=-1), 1.0) else "gaussian"
            if route in failing:
                raise RuntimeError(route)
            return np.abs(x[..., 0])

        f = HomogeneousFunction("failing", 1, eval_)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="gaussian" if "gaussian" in failing else "direct"):
            transfer_identity_check(f, 3, 100, 0)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", [{"gaussian"}, {"gaussian", "direct"}],
                             ids=["gaussian", "both"])
    def test_raised_error_is_freed_without_the_collector(self, failing):
        # a cycle through the raised error's traceback would keep it, and
        # every frame it holds, alive until the cyclic collector runs
        f = HomogeneousFunction("failing", 1, _failing_eval(failing))
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = _raised_error_ref(f)
            assert ref() is None, "the raised error outlived its except clause"
        finally:
            if enabled:
                gc.enable()

    def test_rejects_bad_args_before_starting_a_thread(self):
        f = HomogeneousFunction("never", 1, lambda x: pytest.fail("eval called"))
        threads = threading.active_count()
        with pytest.raises(ValueError):
            transfer_identity_check(f, 0, 100, 0)
        with pytest.raises(ValueError):
            transfer_identity_check(f, 2, 1, 0)
        assert threading.active_count() == threads

    def test_both_routes_run_at_once_on_pool_threads(self):
        # each route's first eval waits for the other's, so routes run in
        # turn break the barrier; a route run in the caller fails the idents
        barrier = threading.Barrier(2, timeout=60.0)
        idents = {}

        def eval_(x):
            route = _route(x)
            if route not in idents:
                barrier.wait()
                idents[route] = threading.get_ident()
            return np.abs(x[..., 0])

        threads = threading.active_count()
        transfer_identity_check(HomogeneousFunction("barrier", 1, eval_), 3, 100_000, 0)
        assert threading.active_count() == threads
        assert sorted(idents) == ["direct", "gaussian"]
        assert idents["direct"] != idents["gaussian"]
        assert threading.get_ident() not in idents.values()

    def test_callers_on_more_threads_than_cores(self):
        # four callers, each with its two-worker pool, switched every microsecond
        cases = [("min-abs", 2, 20_000, 3), ("sum-abs", 9, 5_000, 4),
                 ("sum-squares", 7, 8_000, 5), ("max-abs", 40, 1_000, 6)]
        serial = {c: _serial_check(builtin_function(c[0]), *c[1:]) for c in cases}
        got, errors = {}, []

        def call(case):
            try:
                for _ in range(3):
                    rep = transfer_identity_check(builtin_function(case[0]), *case[1:])
                    got.setdefault(case, []).append((rep.gaussian_side, rep.sphere_side))
            except BaseException as exc:
                errors.append(exc)

        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(c,)) for c in cases]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
                assert not t.is_alive(), "a transfer check did not finish"
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert got == {c: [serial[c]] * 3 for c in cases}
        assert threading.active_count() == threads
