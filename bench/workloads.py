"""The benchmark's workloads.

A workload is a sequence of rounds.  Every round holds the same operations
(the same slots) on fresh inputs, so that no timed call recomputes an input
the process has already computed, and every run attempts whole rounds.
Round 0 uses the canonical inputs (the exact tolerances of the CLI command);
later rounds perturb each tolerance by less than one part in a million, which
leaves the work of the quadrature unchanged but the inputs distinct.

Each operation is one call into spheremin's public API, made through the
module attribute its callers read, so that the traced run can wrap it.  Its
check compares the output with values computed apart from spheremin (see
oracle.py) and returns how many output values and evaluation points the
call produced.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

EPS = 2.0**-52
SQRT_PI = math.sqrt(math.pi)
# Monte Carlo estimates must lie within this many standard errors of the
# exact value; a 6-sigma miss has probability about 2e-9 per estimate.
Z_MAX = 6.0
# Relative allowance for rounding in a Monte Carlo mean of values that are
# exactly constant (sum-squares on the sphere has zero variance).
MC_ROUNDING = 1e-12
TOL_JITTER = 2.0**-20


class CheckFailed(Exception):
    """An output disagreed with the independent computation."""


@dataclass(frozen=True)
class Tally:
    results: int  # output values: rows or estimates
    points: int = 0  # evaluation points the program reports for them


@dataclass(frozen=True)
class Op:
    slot: tuple  # the same operation in every round
    call: Callable[[], Any]
    check: Callable[[Any], Tally]
    fault: Optional[type] = None  # the exception of a known fault, counted as failed


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _jitter(rng: random.Random, tol: float, r: int) -> float:
    return tol if r == 0 else tol * (1.0 - TOL_JITTER * rng.random())


def _lgamma_rounding(n: int) -> float:
    """Relative error of exp(lgamma(n/2) - lgamma((n+1)/2)) when each lgamma
    is off by a few units in the last place."""
    return 8.0 * EPS * (2.0 + abs(math.lgamma(n / 2.0)) + abs(math.lgamma((n + 1) / 2.0)))


def run_cli(sm, argv: List[str]):
    """cli.main with stdout captured; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sm.cli.main(argv)
    return code, buf.getvalue()


def _csv_rows(out, columns: List[str]) -> List[dict]:
    code, text = out
    _require(code == 0, f"exit code {code}")
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(bool(rows) and list(rows[0].keys()) == columns, f"bad csv header in {text[:80]!r}")
    return rows


class DistGrid:
    """expected_min over all five distributions at n = 1 ... 10^6 and two
    tolerances; asymptotic_min is checked against each value."""

    name = "dist-grid"
    quadrature = True
    NS = tuple(10**k for k in range(7))
    TOLS = (1e-10, 1e-13)
    # Parameter ranges with a finite mean for every n >= 1, drawn in STRATA
    # equal sub-intervals per run so that the total work varies little
    # between seeds.  power_law stays above 2.5, where the evaluation count
    # is smooth in k (it drops at integer k, where y^k is exact).
    RANGES = {"exponential": (0.5, 2.0), "power_law": (2.5, 4.0), "heavy_tail": (1.5, 3.0)}
    STRATA = 4
    # heavy_tail(0.35) at n = 3 has mean 1/(3*0.35 - 1) = 20, but the tail
    # test in quadrature._truncation raises NonConvergentError.
    FAULT = (0.35, 3, 1e-10)

    def __init__(self, sm, oracle, seed: int):
        self.sm, self.oracle = sm, oracle
        self.rng = random.Random(f"{self.name}:{seed}")
        d = sm.distributions
        self.grid = []  # (label, distribution, exact value per n)
        for i in range(self.STRATA):
            p = {name: lo + (hi - lo) * (i + self.rng.random()) / self.STRATA
                 for name, (lo, hi) in self.RANGES.items()}
            r, k, alpha = p["exponential"], p["power_law"], p["heavy_tail"]
            self.grid += [
                ((i, "half_normal"), d.half_normal(), {n: oracle.nmin(n) for n in self.NS}),
                ((i, "exponential"), d.exponential(r), {n: oracle.exponential_min(r, n) for n in self.NS}),
                ((i, "uniform01"), d.uniform01(), {n: oracle.uniform01_min(n) for n in self.NS}),
                ((i, "power_law"), d.power_law(k), {n: oracle.power_law_min(k, n) for n in self.NS}),
                ((i, "heavy_tail"), d.heavy_tail(alpha), {n: oracle.heavy_tail_min(alpha, n) for n in self.NS}),
            ]
        alpha, n, _ = self.FAULT
        self.fault_dist = d.heavy_tail(alpha)
        self.fault_exact = oracle.heavy_tail_min(alpha, n)

    def round(self, r: int) -> List[Op]:
        ops = []
        for label, dist, exact in self.grid:
            for n in self.NS:
                for tol in self.TOLS:
                    t = _jitter(self.rng, tol, r)
                    ops.append(Op(
                        slot=label + (n, tol),
                        call=lambda dist=dist, n=n, t=t: self.sm.minima.expected_min(dist, n, t),
                        check=lambda res, dist=dist, n=n, t=t, x=exact[n]: self.check(res, dist, n, t, x),
                    ))
        # the fault's inputs do not depend on the seed, only on the round
        alpha, n, tol = self.FAULT
        t = tol * (1.0 - r * 2.0**-30)
        ops.append(Op(
            slot=("fault",),
            call=lambda: self.sm.minima.expected_min(self.fault_dist, n, t),
            check=lambda res: self.check(res, self.fault_dist, n, t, self.fault_exact),
            fault=self.sm.errors.NonConvergentError,
        ))
        return ops

    def check(self, res, dist, n: int, tol: float, exact: float) -> Tally:
        _require(res.n == n and res.method == "quadrature", f"{dist.name} n={n}: bad result {res}")
        _require(res.error_bound <= tol, f"{dist.name} n={n}: bound {res.error_bound:g} above tol {tol:g}")
        slack = res.error_bound + 8.0 * EPS * exact
        _require(abs(res.value - exact) <= slack,
                 f"{dist.name} n={n} tol={tol:g}: {res.value!r} vs exact {exact!r}")
        minima, errors = self.sm.minima, self.sm.errors
        if dist.density_at_zero == 0.0:
            try:
                minima.asymptotic_min(dist, n)
            except errors.HypothesisViolatedError as exc:
                _require(exc.condition == "density", f"{dist.name}: condition {exc.condition}")
            else:
                raise CheckFailed(f"{dist.name}: asymptotic_min accepted f(0) = 0")
        else:
            ratio = minima.asymptotic_min(dist, n).value / res.value
            _require(abs(ratio - 1.0) <= 2.0 / (n + 1),
                     f"{dist.name} n={n}: asymptotic/quadrature = {ratio!r}")
        return Tally(1)


class McSphere:
    """transfer_identity_check, which runs sphere_mean_from_gaussian and
    sphere_mean_direct on one function, for every built-in function and at
    n = 2, 40 and 1000, each estimate one full sampling chunk of COORDS
    coordinates.  A round holds few pairs, so that each slot is timed about
    twenty times in a run."""

    name = "mc-sphere"
    quadrature = False
    PAIRS = (("min-abs", 2), ("max-abs", 40), ("sum-abs", 1000),
             ("sum-squares", 2), ("abs-first", 40), ("min-abs", 1000))
    COORDS = 4_000_000

    def __init__(self, sm, oracle, seed: int, coords: int = COORDS, pairs=PAIRS):
        self.sm = sm
        self.rng = random.Random(f"{self.name}:{seed}")
        self.coords, self.pairs = coords, pairs
        self.exact = {(fn, n): oracle.sphere_mean(fn, n) for fn, n in pairs}

    def round(self, r: int) -> List[Op]:
        t = self.sm.transfer
        ops = []
        for fn, n in self.pairs:
            samples = self.coords // n
            ops.append(Op(
                slot=(fn, n),
                call=lambda fn=fn, n=n, s=samples, seed=self.rng.getrandbits(63):
                    t.transfer_identity_check(t.builtin_function(fn), n, s, seed),
                check=lambda rep, s=samples, x=self.exact[fn, n]: self.check_report(rep, s, x),
            ))
        return ops

    @staticmethod
    def check_report(rep, samples: int, exact: float) -> Tally:
        points = check_estimate(rep.gaussian_side, samples, exact)
        points += check_estimate(rep.sphere_side, samples, exact)
        g, s = rep.gaussian_side, rep.sphere_side
        spread = Z_MAX * math.hypot(g.std_error, s.std_error) + MC_ROUNDING * abs(exact)
        _require(abs(g.point - s.point) <= spread, f"{rep.function} n={rep.n}: routes disagree")
        return Tally(2, points)


def check_estimate(est, samples: int, exact: float) -> int:
    _require(est.samples == samples, f"samples {est.samples} != {samples}")
    allowed = Z_MAX * est.std_error + MC_ROUNDING * abs(exact)
    _require(abs(est.point - exact) <= allowed,
             f"estimate {est.point!r} +- {est.std_error:g} vs exact {exact!r}")
    return est.samples


def probe_ops(sm, oracle) -> List[Op]:
    """A fixed probe for the traced run, with inputs that do not depend on
    the seed: rows 1-50 of the paper's table and a range of small estimates,
    both through cli.main, and the two Monte Carlo routes of min-abs on 1M
    coordinates."""
    emin = ["sweep", "--command", "emin", "--n-range", "1:50:1", "--tol", "1e-10", "--format", "csv"]
    # one direct estimate per n, each seeded from SeedSequence(0).spawn(199)
    mean = ["sphere-mean", "--n-range", "2:200:1", "--samples", "500", "--seed", "0",
            "--format", "csv"]
    ops = [
        Op(slot=("probe", "emin"), call=lambda: run_cli(sm, emin),
           check=lambda out: check_emin_rows(oracle, out, range(1, 51), 1e-10)),
        Op(slot=("probe", "sphere-mean"), call=lambda: run_cli(sm, mean),
           check=lambda out: check_sphere_mean_rows(oracle, out, range(2, 201), 500)),
    ]
    pairs = tuple(("min-abs", n) for n in (2, 40, 1000))
    return ops + McSphere(sm, oracle, 0, coords=1_000_000, pairs=pairs).round(0)


def check_emin_rows(oracle, out, ns, tol: float) -> Tally:
    rows = _csv_rows(out, ["n", "value", "error_bound", "method"])
    _require([int(row["n"]) for row in rows] == list(ns), "rows out of order")
    for row in rows:
        n = int(row["n"])
        value, bound = float(row["value"]), float(row["error_bound"])
        exact, factor = oracle.emin(n), oracle.half_ratio(n)
        _require(row["method"] == "quadrature", f"n={n}: method {row['method']}")
        _require(bound <= factor * tol * (1 + 1e-12), f"n={n}: bound {bound:g} above tol")
        slack = bound + _lgamma_rounding(n) * exact
        _require(abs(value - exact) <= slack, f"n={n}: {value!r} vs oracle {exact!r}")
        # (n+1) * nmin(n) -> sqrt(pi)/2 with a residual below 1.5/n^2 (the
        # oracle gives 1.39/n^2 for large n and 0.24 at n = 1)
        residual = abs((n + 1) * value / factor - SQRT_PI / 2.0)
        _require(residual <= 1.5 / n**2, f"n={n}: (n+1)nmin residual {residual:g}")
    return Tally(len(rows))


def check_sphere_mean_rows(oracle, out, ns, samples: int) -> Tally:
    rows = _csv_rows(out, ["n", "function", "point", "std_error", "samples"])
    _require([int(row["n"]) for row in rows] == list(ns), "rows out of order")
    for row in rows:
        n = int(row["n"])
        _require(row["function"] == "min-abs" and int(row["samples"]) == samples, f"n={n}: bad row {row}")
        exact = oracle.sphere_mean("min-abs", n)
        allowed = Z_MAX * float(row["std_error"]) + MC_ROUNDING * exact
        _require(abs(float(row["point"]) - exact) <= allowed,
                 f"n={n}: sphere-mean {row['point']} +- {row['std_error']} vs exact {exact!r}")
    return Tally(len(rows), samples * len(rows))


WORKLOADS = {w.name: w for w in (DistGrid, McSphere)}
