"""Benchmark of spheremin: one workload, one seed, one fresh process.

    python3 bench/run.py --workload dist-grid --seed 1 --seconds 40 --trace 0

Prints progress on stderr and, as the last line of stdout, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, measured on the unmodified program; with
--trace 1 they are the per-layer ones from the traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types

from oracle import Oracle
from tracing import Tracer, layer_metrics, micro_metrics
from workloads import WORKLOADS, probe_ops

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

# Run in a fresh interpreter; argv[1] is the source directory.
IMPORT_ALL = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
              "import spheremin, spheremin.cli; print(time.perf_counter() - t0)")
IMPORT_CLI = ("import sys, time; sys.path.insert(0, sys.argv[1]); import spheremin; "
              "t0 = time.perf_counter(); import spheremin.cli; print(time.perf_counter() - t0)")
IMPORT_REPS = 7


def load_program() -> types.SimpleNamespace:
    """Import spheremin from the checkout's own sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "spheremin", "__init__.py")):
        raise SystemExit(f"error: no spheremin sources under {SRC}")
    sys.path.insert(0, SRC)
    import spheremin
    from spheremin import cli, distributions, errors, minima, special, transfer

    if not os.path.abspath(spheremin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: spheremin imported from {spheremin.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, distributions=distributions, errors=errors,
                                 minima=minima, special=special, transfer=transfer)


class ImportTimer:
    """Times imports in fresh interpreters, spread over the run so that one
    slow spell of the host does not decide the median."""

    def __init__(self, code: str, reps: int, seconds: float):
        self.code, self.reps = code, reps
        self.spacing = seconds / reps
        self.times = []
        self.last = -math.inf

    def sample(self) -> None:
        out = subprocess.run([sys.executable, "-I", "-c", self.code, SRC], capture_output=True,
                             text=True, timeout=120, check=True)
        self.times.append(float(out.stdout))
        self.last = time.perf_counter()

    def between_rounds(self) -> None:
        if len(self.times) < self.reps and time.perf_counter() - self.last >= self.spacing:
            self.sample()

    def median(self) -> float:
        while len(self.times) < self.reps:
            self.sample()
        return statistics.median(self.times)


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.unexpected = 0
        self.results = self.points = 0

    def run_round(self, r: int, best=None) -> int:
        """Run round r; record each op's time as the best of its slot.
        Returns the number of output values the round produced."""
        before = self.results
        for op in self.workload.round(r):
            dt = self.run(op)
            if best is not None:
                best[op.slot] = min(best.get(op.slot, dt), dt)
        return self.results - before

    def run(self, op) -> float:
        """Run and check one operation; returns the seconds its call took."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failing call is counted; the run goes on
            dt = time.perf_counter() - t0
            self._fail(op, exc)
            return dt
        dt = time.perf_counter() - t0
        try:
            tally = op.check(out)
        except Exception as exc:  # CheckFailed, or an output of the wrong shape
            self._fail(op, exc)
            return dt
        self.results += tally.results
        self.points += tally.points
        return dt

    def _fail(self, op, exc: Exception) -> None:
        self.failed += 1
        if op.fault is not None and isinstance(exc, op.fault):
            return
        self.unexpected += 1
        if self.unexpected <= 5:
            print(f"FAILED {self.workload.name} {op.slot}:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def timed_rounds(runner: Runner, first: int, seconds: float, traced=None, between=None):
    """Whole rounds until `seconds` have passed.  Returns the output values of
    one round and the best time per slot of the plain program; with a tracer,
    rounds alternate between the plain program and the traced one, and the
    best time per slot of the traced rounds comes third.  `between` is called
    after every round, outside the timed calls."""
    plain, with_trace = {}, {}
    deadline = time.perf_counter() + seconds
    r = first
    while True:
        per_round = runner.run_round(r, plain)
        r += 1
        if traced is not None:
            with traced.installed():
                runner.run_round(r, with_trace)
            traced.rounds += 1
            r += 1
        if between is not None:
            between()
        if time.perf_counter() >= deadline:
            return per_round, plain, with_trace


def end_to_end(sm, workload, seconds: int) -> tuple:
    setup = ImportTimer(IMPORT_ALL, IMPORT_REPS, seconds)
    setup.sample()
    runner = Runner(workload)
    first = 0
    if workload.quadrature:
        # evaluation counts come from a separate, untimed pass over round 0
        counter = Tracer(sm)
        with counter.installed():
            results = runner.run_round(0)
        evals_per_result = counter.evals / results
        first = 1
    per_round, best, _ = timed_rounds(runner, first, seconds, between=setup.between_rounds)
    if not workload.quadrature:
        evals_per_result = runner.points / runner.results
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "results_per_s": (per_round / sum(best.values()), "1/s"),
        "evals_per_result": (evals_per_result, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup.median(), "s"),
    }
    return runner, metrics


def per_layer(sm, oracle, workload, seconds: int, seed: int) -> tuple:
    metrics = micro_metrics(sm, seed)
    cli_import = ImportTimer(IMPORT_CLI, IMPORT_REPS, seconds)
    runner = Runner(workload)
    tracer = Tracer(sm)
    first = 0
    if workload.quadrature:
        with tracer.installed():
            runner.run_round(0)
        tracer.rounds += 1
        first = 1
    _, plain, traced = timed_rounds(runner, first, seconds, traced=tracer,
                                    between=cli_import.between_rounds)
    metrics["cli.import_s"] = (cli_import.median(), "s")
    # A fixed small probe gives the layers this workload does not reach.  Its
    # operations are checked but kept out of attempted and failed, which
    # count whole rounds of the workload only.
    probe, probe_runner = Tracer(sm), Runner(workload)
    with probe.installed():
        for op in probe_ops(sm, oracle):
            probe_runner.run(op)
    probe.rounds = 1
    runner.unexpected += probe_runner.unexpected
    metrics.update(layer_metrics(tracer, probe))
    overhead = sum(traced.values()) / sum(plain[slot] for slot in traced) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spheremin benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    sm = load_program()
    oracle = Oracle()
    workload = WORKLOADS[args.workload](sm, oracle, args.seed)
    t0 = time.perf_counter()
    if args.trace:
        runner, metrics = per_layer(sm, oracle, workload, args.seconds, args.seed)
    else:
        runner, metrics = end_to_end(sm, workload, args.seconds)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {runner.attempted} ops, "
          f"{runner.failed} failed, {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
