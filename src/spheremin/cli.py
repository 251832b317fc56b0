"""Command-line interface.

Subcommands: nmin, emin, expected-min, asymptotic, sphere-mean, sweep,
verify.  Data rows go to stdout (csv, json, or an aligned table);
diagnostics go to stderr.  Exit codes: 0 ok, 1 verify failure, 2 parse
error, 3 nonconvergent integral (or rows written whose error bound is above
--tol, with one warning line), 4 violated asymptotic hypothesis.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import distributions as dists
from . import minima, transfer
from .distributions import Distribution
from .errors import HypothesisViolatedError, NonConvergentError
from .special import SQRT_PI, gamma_ratio

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_NONCONVERGENT = 3
EXIT_HYPOTHESIS = 4


class CliParseError(ValueError, argparse.ArgumentTypeError):
    """A malformed argument value; as an ArgumentTypeError, argparse prints
    its message when a `type=` parser raises it."""


def parse_distribution(spec: str) -> Distribution:
    """Parse `half-normal`, `exponential:<rate>`, `uniform01`,
    `power-law:<k>`, `heavy-tail:<alpha>`."""
    name, sep, arg = spec.partition(":")
    if sep and name in ("half-normal", "uniform01"):
        raise CliParseError(f"{name} takes no parameter, got {spec!r}")
    try:
        if name == "half-normal":
            return dists.half_normal()
        if name == "uniform01":
            return dists.uniform01()
        if name == "exponential":
            return dists.exponential(float(arg))
        if name == "power-law":
            return dists.power_law(float(arg))
        if name == "heavy-tail":
            return dists.heavy_tail(float(arg))
    except ValueError as exc:
        raise CliParseError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise CliParseError(f"unknown distribution {name!r}")


def parse_n_range(spec: str) -> List[int]:
    """`start:stop:x10` (multiplicative) or `start:stop:5` (additive),
    inclusive of stop when it is hit exactly."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliParseError(f"n-range must be start:stop:step, got {spec!r}")
    try:
        start, stop = int(parts[0]), int(parts[1])
        step_spec = parts[2]
        multiplicative = step_spec.startswith("x")
        step = int(step_spec[1:]) if multiplicative else int(step_spec.lstrip("+"))
    except ValueError as exc:
        raise CliParseError(f"bad n-range {spec!r}: {exc}") from exc
    if start < 1 or stop < start or step < (2 if multiplicative else 1):
        raise CliParseError(f"bad n-range {spec!r}")
    out, n = [], start
    while n <= stop:
        out.append(n)
        n = n * step if multiplicative else n + step
    return out


SWEEP_COLUMNS = ("n", "value", "error_bound", "method", "scaled")


def _parse_columns(spec: str) -> List[str]:
    columns = [c.strip() for c in spec.split(",") if c.strip()]
    if not columns:
        raise CliParseError(f"no column named in {spec!r}")
    unknown = [c for c in columns if c not in SWEEP_COLUMNS]
    if unknown:
        raise CliParseError(f"unknown columns: {', '.join(unknown)}")
    return columns


def _parse_seed(text: str) -> int:
    """A --seed: a non-negative integer, as numpy's SeedSequence needs."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise CliParseError(f"must be a non-negative integer, got {text!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(rows: List[dict], columns: List[str], fmt: str, out: io.TextIOBase) -> None:
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    elif fmt == "json":
        payload = [{c: row[c] for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2) + "\n")
    else:  # table
        cells = [[_fmt(row[c]) for c in columns] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
                  for i, c in enumerate(columns)]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for r in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def _min_row(res: minima.MinResult) -> dict:
    return {
        "n": res.n,
        "value": res.value,
        "error_bound": res.error_bound if res.error_bound is not None else "unknown",
        "method": res.method,
    }


def _compute_min(command: str, args: argparse.Namespace, n: int) -> minima.MinResult:
    if command == "emin":
        return minima.emin(n, args.tol)
    if command == "nmin":
        return minima.nmin(n, args.tol)
    if command == "expected-min":
        return minima.expected_min(args.dist, n, args.tol)
    return minima.asymptotic_min(args.dist, n)


def _run_min_command(args: argparse.Namespace, out: io.TextIOBase) -> int:
    command = getattr(args, "sweep_command", args.command)
    if command in ("expected-min", "asymptotic") and args.dist is None:
        raise CliParseError(f"{command} requires --dist")
    columns = getattr(args, "columns", None) or ["n", "value", "error_bound", "method"]
    rows, unconverged = [], []
    for n in args.n_range or [args.n]:
        res = _compute_min(command, args, n)
        row = _min_row(res)
        row["scaled"] = (n + 1) * res.value
        rows.append(row)
        if res.converged is False:
            unconverged.append(n)
    _emit(rows, columns, args.fmt, out)
    if unconverged:
        print(f"warning: {len(unconverged)} of {len(rows)} rows did not converge "
              f"(error_bound above --tol {args.tol:g}), first at n={unconverged[0]}",
              file=sys.stderr)
        return EXIT_NONCONVERGENT
    return EXIT_OK


def _run_sphere_mean(args: argparse.Namespace, out: io.TextIOBase) -> int:
    f = transfer.builtin_function(args.fn)
    ns = args.n_range or [args.n]
    rows = []
    for n, seed in zip(ns, np.random.SeedSequence(args.seed).spawn(len(ns))):
        est = transfer.sphere_mean_direct(f, n, args.samples, seed)
        rows.append({
            "n": n,
            "function": f.name,
            "point": est.point,
            "std_error": est.std_error,
            "samples": est.samples,
        })
    _emit(rows, ["n", "function", "point", "std_error", "samples"], args.fmt, out)
    return EXIT_OK


def _run_verify(args: argparse.Namespace, out: io.TextIOBase) -> int:
    """Cross-validation suite: quadrature vs closed forms, the gamma-route
    sphere value vs direct sphere Monte Carlo, and the transfer identity
    for every built-in function."""
    checks = []

    def check(name: str, ok: bool, detail: str, converged: bool = True) -> None:
        # a value whose quadrature missed --tol fails, however close it is
        if not converged:
            ok, detail = False, detail + " converged=False"
        checks.append(ok)
        out.write(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}\n")

    def quadrature(name: str, res: minima.MinResult, expect: float) -> None:
        check(name, abs(res.value - expect) <= 1e-9,
              f"value={_fmt(res.value)} expect={_fmt(expect)}", res.converged)

    tol = args.tol
    for n in (1, 10, 100):
        quadrature(f"quadrature-exponential-n{n}",
                   minima.expected_min(dists.exponential(1.0), n, tol), 1.0 / n)
    for n in (1, 9, 99):
        quadrature(f"quadrature-uniform01-n{n}",
                   minima.expected_min(dists.uniform01(), n, tol), 1.0 / (n + 1))
    quadrature("quadrature-half-normal-n1", minima.nmin(1, tol), 1.0 / SQRT_PI)
    quadrature("quadrature-half-normal-n2", minima.nmin(2, tol),
               (2.0 - math.sqrt(2.0)) / SQRT_PI)

    bad = [n for n in range(1, 1001)
           if abs(gamma_ratio(n, 2) * (n / 2.0) - 1.0) > 1e-12]
    check("gamma-identity-degree2", not bad, f"violations={len(bad)}")

    root = np.random.SeedSequence(args.seed)
    min_abs = transfer.builtin_function("min-abs")
    for n, child in zip((2, 5, 10), root.spawn(3)):
        est = transfer.sphere_mean_direct(min_abs, n, args.samples, child)
        ref = minima.emin(n, tol)
        z = abs(est.point - ref.value) / est.std_error if est.std_error > 0 else 0.0
        check(f"sphere-vs-quadrature-n{n}", z <= 4.0,
              f"mc={_fmt(est.point)} quad={_fmt(ref.value)} z={z:.3f}", ref.converged)

    for f, child in zip(transfer.builtin_functions(), root.spawn(8)[3:]):
        rep = transfer.transfer_identity_check(f, 3, args.samples, child)
        check(f"transfer-identity-{f.name}-n3", rep.agree,
              f"z={rep.z_score:.3f}")

    ok = all(checks)
    out.write(f"{'OK' if ok else 'FAILED'}  {sum(checks)}/{len(checks)} checks passed\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheremin",
        description="Spherical minimum means and expected minima of iid "
                    "nonnegative variables, with cross-validated routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True, dist=False):
        ns = p.add_mutually_exclusive_group(required=True)
        ns.add_argument("--n", type=int)
        ns.add_argument("--n-range", type=parse_n_range)
        if tol:
            p.add_argument("--tol", type=float, default=minima.DEFAULT_TOL)
        if dist:
            p.add_argument("--dist", type=parse_distribution)
        p.add_argument("--format", dest="fmt", choices=("csv", "json", "table"),
                       default="table")
        p.add_argument("--output", type=str)
        return p

    common(sub.add_parser("emin", help="mean min |x_i| over the unit sphere"))
    common(sub.add_parser("nmin", help="expected min |Z_i|, Z_i ~ N(0, 1/2)"))
    common(sub.add_parser("expected-min", help="expected minimum for a distribution"),
           dist=True)
    common(sub.add_parser("asymptotic", help="asymptotic law 1/(f(0)(n+1))"),
           tol=False, dist=True)
    mean = common(sub.add_parser("sphere-mean", help="direct Monte Carlo sphere mean"),
                  tol=False)
    mean.add_argument("--fn", choices=[f.name for f in transfer.builtin_functions()],
                      default="min-abs")
    mean.add_argument("--samples", type=int, default=1_000_000)
    mean.add_argument("--seed", type=_parse_seed, default=0)
    sweep = common(sub.add_parser("sweep", help="run a command over an n-range"), dist=True)
    sweep.add_argument("--command", dest="sweep_command", required=True,
                       choices=("emin", "nmin", "expected-min", "asymptotic"))
    sweep.add_argument("--columns", type=_parse_columns)
    verify = sub.add_parser("verify", help="cross-validation suite; exit 1 on failure")
    verify.add_argument("--tol", type=float, default=minima.DEFAULT_TOL)
    verify.add_argument("--samples", type=int, default=200_000)
    verify.add_argument("--seed", type=_parse_seed, default=0)
    verify.add_argument("--output", type=str)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE_ERROR

    buffer = io.StringIO()
    try:
        if args.command == "verify":
            code = _run_verify(args, buffer)
        elif args.command == "sphere-mean":
            code = _run_sphere_mean(args, buffer)
        else:
            code = _run_min_command(args, buffer)
    except NonConvergentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except HypothesisViolatedError as exc:
        print(f"error: hypothesis ({exc.condition}) violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        # a value the library rejects: n < 1, tol outside (0, 1e-2],
        # samples < 2, or a missing --dist
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    text = buffer.getvalue()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
