"""End-to-end acceptance gate.

Each test enforces one criterion at its stated tolerance and prints a
PASS line (run with `pytest -s tests/test_acceptance.py` to see them).
Monte Carlo criteria use fixed seeds, so every check is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import spheremin as sm
from spheremin import transfer

SQRT_PI_HALF = 0.8862269254527580


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_small_n_sphere_values():
    """emin(1) = 1 and emin(2) matches the independent circle integral."""
    assert abs(sm.emin(1).value - 1.0) <= 1e-12
    circle, _ = quad(math.sin, 0.0, math.pi / 4.0)
    ref = (4.0 / math.pi) * circle
    assert abs(sm.emin(2).value - ref) <= 1e-10
    report("1 (exact small-n sphere values)")


def test_criterion_2_limit_constant_and_residual_decay():
    """(n+1)*nmin(n) approaches sqrt(pi)/2 with shrinking residual."""
    scaled = {n: (n + 1) * sm.nmin(n, 1e-13).value for n in (100, 1000, 10**4, 10**5)}
    assert SQRT_PI_HALF - 1e-3 <= scaled[10**4] <= SQRT_PI_HALF + 1e-3
    residuals = [abs(v - SQRT_PI_HALF) for v in scaled.values()]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    report("2 (scaled half-normal minimum converges to sqrt(pi)/2)")


def test_criterion_3_closed_form_oracles():
    """Exponential and uniform expected minima hit their closed forms."""
    for n in (1, 2, 10, 100, 10**4):
        for rate in (1.0, 2.5):
            v = sm.expected_min(sm.exponential(rate), n).value
            assert abs(v - 1.0 / (n * rate)) <= 1e-9
        v = sm.expected_min(sm.uniform01(), n).value
        assert abs(v - 1.0 / (n + 1)) <= 1e-9
    report("3 (closed-form quadrature oracles)")


def test_criterion_4_asymptotic_law_and_violators():
    """1/(f(0)(n+1)) tracks the quadrature; violators are rejected."""
    for dist in (sm.half_normal(), sm.exponential(3.0)):
        for n, band in ((10**3, 1e-2), (10**5, 1e-3)):
            ratio = sm.asymptotic_min(dist, n).value / sm.expected_min(dist, n, 1e-13).value
            assert 1.0 - band <= ratio <= 1.0 + band
    with pytest.raises(sm.HypothesisViolatedError):
        sm.asymptotic_min(sm.power_law(2.0), 10)
    with pytest.raises(sm.NonConvergentError):
        sm.expected_min(sm.heavy_tail(0.5), 1)
    report("4 (asymptotic minimum law and hypothesis violators)")


def test_criterion_5_sphere_formula_end_to_end():
    """Gamma-transfer quadrature equals direct sphere Monte Carlo."""
    min_abs = transfer.builtin_function("min-abs")
    seeds = np.random.SeedSequence(42).spawn(4)
    for n, seed in zip((2, 5, 10, 50), seeds):
        est = transfer.sphere_mean_direct(min_abs, n, 10**6, seed)
        ref = sm.emin(n).value
        assert abs(est.point - ref) <= 4.0 * est.std_error
    report("5 (quadrature route matches direct sphere sampling)")


def test_criterion_6_transfer_identity_all_builtins():
    """Both Monte Carlo routes agree for every built-in function, and the
    degree-2 gamma identity is exact."""
    seeds = iter(np.random.SeedSequence(4242).spawn(15))
    for f in transfer.builtin_functions():
        for n in (2, 3, 10):
            rep = transfer.transfer_identity_check(f, n, 10**6, next(seeds))
            assert rep.agree, (f.name, n, rep.z_score)
    for n in range(1, 1001):
        assert abs(sm.gamma_ratio(n, 2) * (n / 2.0) - 1.0) <= 1e-12
    report("6 (transfer identity for all built-ins)")


def test_criterion_7_large_n_ratio():
    """nmin/emin over sqrt((n+1)/2) is 1 to 1e-4 at n = 1e6."""
    n = 10**6
    ratio = (1.0 / sm.gamma_ratio(n, 1)) / math.sqrt((n + 1) / 2.0)
    assert 1.0 - 1e-4 <= ratio <= 1.0 + 1e-4
    report("7 (gamma half-ratio large-n behavior)")


def test_criterion_8_verify_reproducible(tmp_path):
    """`verify --seed 42` twice: exit 0 and byte-identical reports."""
    from spheremin.cli import main

    outputs = []
    for name in ("first.txt", "second.txt"):
        path = tmp_path / name
        code = main(["verify", "--seed", "42", "--samples", "200000",
                     "--output", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    report("8 (verify is reproducible and green)")
