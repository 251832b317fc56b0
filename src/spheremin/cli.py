"""Command-line interface.

Subcommands: nmin, emin, expected-min, asymptotic, sphere-mean, sweep,
verify.  The four min commands are the rows of one route table,
_MIN_ROUTES; `sweep --command X` is X over an n-range with --columns, and
accepts exactly the options of X's route.  Data rows go to stdout (csv,
json, or an aligned table); diagnostics go to stderr.  Exit codes: 0 ok,
1 verify failure, 2 parse error, 3 nonconvergent integral (or rows written
whose error bound is above --tol, with one warning line), 4 violated
asymptotic hypothesis.

Only sphere-mean and verify run Monte Carlo: they import transfer, and
numpy with it, when they run, so the min commands and sweep start
without numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import List, Optional, Sequence

from . import distributions as dists
from . import minima
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
        step = int(step_spec[1:]) if multiplicative else int(step_spec)
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
# the names of transfer.builtin_functions(), in its order, spelled out so
# that building the parser does not import transfer
_FN_NAMES = ("min-abs", "max-abs", "sum-abs", "sum-squares", "abs-first")

# The route table of the min commands: help text, the options each reads
# (of _MIN_OPTIONS, all None unless given), and its minima call, looked up on
# `minima` when it runs so that a wrapper installed there sees it.
_MIN_OPTIONS = {"tol": float, "dist": parse_distribution}
_MIN_ROUTES = {
    "emin": ("mean min |x_i| over the unit sphere", ("tol",),
             lambda args, n: minima.emin(n, args.tol)),
    "nmin": ("expected min |Z_i|, Z_i ~ N(0, 1/2)", ("tol",),
             lambda args, n: minima.nmin(n, args.tol)),
    "expected-min": ("expected minimum for a distribution", ("tol", "dist"),
                     lambda args, n: minima.expected_min(args.dist, n, args.tol)),
    "asymptotic": ("asymptotic law 1/(f(0)(n+1))", ("dist",),
                   lambda args, n: minima.asymptotic_min(args.dist, n)),
}


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


def _emit(rows: List[dict], columns: Sequence[str], fmt: str, out: io.TextIOBase) -> None:
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    elif fmt == "json":
        # JSON has no inf or nan: a non-finite float is written as the
        # string that csv and table print
        payload = [{c: _fmt(row[c]) if isinstance(row[c], float) and not math.isfinite(row[c])
                    else row[c] for c in columns} for row in rows]
        out.write(json.dumps(payload, indent=2) + "\n")
    else:  # table
        cells = [[_fmt(row[c]) for c in columns] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
        out.write("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip() + "\n")
        for r in cells:
            out.write("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() + "\n")


def _run_min(args: argparse.Namespace, out: io.TextIOBase) -> int:
    """One row per n of the route's call, for a min command or its sweep."""
    _, reads, call = _MIN_ROUTES[args.route]
    for dest in _MIN_OPTIONS:
        if vars(args)[dest] is not None and dest not in reads:
            raise CliParseError(f"{args.route} takes no --{dest}")
    if "dist" in reads and args.dist is None:
        raise CliParseError(f"{args.route} requires --dist")
    if args.tol is None:
        args.tol = minima.DEFAULT_TOL
    rows, unconverged = [], []
    for n in args.n_range or [args.n]:
        res = call(args, n)
        bound = "unknown" if res.error_bound is None else res.error_bound
        rows.append({"n": n, "value": res.value, "error_bound": bound,
                     "method": res.method, "scaled": (n + 1) * res.value})
        if res.converged is False:
            unconverged.append(n)
    _emit(rows, args.columns, args.fmt, out)
    if unconverged:
        print(f"warning: {len(unconverged)} of {len(rows)} rows did not converge "
              f"(error_bound above --tol {args.tol:g}), first at n={unconverged[0]}",
              file=sys.stderr)
        return EXIT_NONCONVERGENT
    return EXIT_OK


def _run_sphere_mean(args: argparse.Namespace, out: io.TextIOBase) -> int:
    import numpy as np

    from . import transfer

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
    import numpy as np

    from . import transfer

    checks = []

    def check(name: str, ok: bool, detail: str, converged: bool = True) -> None:
        # a value whose quadrature missed --tol fails, however close it is
        if not converged:
            ok, detail = False, detail + " converged=False"
        checks.append(ok)
        out.write(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}\n")

    eps = sys.float_info.epsilon

    def quadrature(name: str, res: minima.MinResult, expect: float) -> None:
        # the bound must cover the error, up to 8 ulp for the rounding of
        # the final sum, which the bound leaves out
        ok = abs(res.value - expect) <= res.error_bound + 8 * eps * abs(expect)
        check(name, ok, f"value={_fmt(res.value)} expect={_fmt(expect)}", res.converged)

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

    # gamma_ratio's 3 eps and the rounding of the product
    bad = [n for n in range(1, 1001)
           if abs(gamma_ratio(n, 2) * (n / 2.0) - 1.0) > 4 * eps]
    check("gamma-identity-degree2", not bad, f"violations={len(bad)}")

    children = np.random.SeedSequence(args.seed).spawn(8)
    min_abs = transfer.builtin_function("min-abs")
    for n, child in zip((2, 5, 10), children[:3]):
        est = transfer.sphere_mean_direct(min_abs, n, args.samples, child)
        ref = minima.emin(n, tol)
        z, agree = transfer._agreement(est.point, ref.value, est.std_error)
        check(f"sphere-vs-quadrature-n{n}", agree,
              f"mc={_fmt(est.point)} quad={_fmt(ref.value)} z={z:.3f}", ref.converged)

    for f, child in zip(transfer.builtin_functions(), children[3:]):
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

    def common(p):
        ns = p.add_mutually_exclusive_group(required=True)
        ns.add_argument("--n", type=int)
        ns.add_argument("--n-range", type=parse_n_range)
        p.add_argument("--format", dest="fmt", choices=("csv", "json", "table"),
                       default="table")
        p.add_argument("--output", type=str)
        return p

    def min_command(name, help_text, reads):
        p = common(sub.add_parser(name, help=help_text))
        for dest in reads:
            p.add_argument(f"--{dest}", type=_MIN_OPTIONS[dest])
        p.set_defaults(run=_run_min, columns=SWEEP_COLUMNS[:4], **dict.fromkeys(_MIN_OPTIONS))
        return p

    for name, (help_text, reads, _) in _MIN_ROUTES.items():
        min_command(name, help_text, reads).set_defaults(route=name)
    mean = common(sub.add_parser("sphere-mean", help="direct Monte Carlo sphere mean"))
    mean.add_argument("--fn", choices=_FN_NAMES, default="min-abs")
    mean.add_argument("--samples", type=int, default=1_000_000)
    mean.add_argument("--seed", type=_parse_seed, default=0)
    mean.set_defaults(run=_run_sphere_mean)
    sweep = min_command("sweep", "run a command over an n-range", _MIN_OPTIONS)
    sweep.add_argument("--command", dest="route", required=True, choices=_MIN_ROUTES)
    sweep.add_argument("--columns", type=_parse_columns)
    verify = sub.add_parser("verify", help="cross-validation suite; exit 1 on failure")
    verify.add_argument("--tol", type=float, default=minima.DEFAULT_TOL)
    verify.add_argument("--samples", type=int, default=200_000)
    verify.add_argument("--seed", type=_parse_seed, default=0)
    verify.add_argument("--output", type=str)
    verify.set_defaults(run=_run_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE_ERROR

    buffer = io.StringIO()
    try:
        code = args.run(args, buffer)
    except NonConvergentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except HypothesisViolatedError as exc:
        print(f"error: hypothesis ({exc.condition}) violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        # a value the library rejects: n < 1, tol outside (0, 1e-2],
        # samples < 2, a missing --dist, or an option sweep's route does not read
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
