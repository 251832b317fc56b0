"""The traced run: spans and counters around spheremin's public functions,
and timed loops over single functions.

Timed runs call the program unmodified.  A Tracer replaces, for the length
of a `with tracer.installed():` block, the module attributes and dataclass
fields that spheremin's own callers read:

    cli.main                       minima.emin / expected_min
    minima.survival_power_integral (and Distribution.log_survival of the
                                    distribution it is given)
    transfer.sphere_mean_direct / sphere_mean_from_gaussian /
    transfer_identity_check        transfer.builtin_function (and the
                                    HomogeneousFunction.eval it returns)

A span's self time is its duration minus that of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

SPI = "quadrature.survival_power_integral"
LOG_S = "distributions.log_survival"
ESTIMATES = ("transfer.sphere_mean_direct", "transfer.sphere_mean_from_gaussian")
MICRO_REPS = 25


@dataclass
class Span:
    calls: int = 0
    outer: int = 0  # calls not nested in another span of the same layer
    incl: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self, sm):
        self.sm = sm
        self.spans = defaultdict(Span)
        self.rounds = 0  # traced rounds; one round of a CLI workload is one pass
        self.evals = 0  # points at which log_survival was evaluated
        self.beyond_cut = 0  # ... at y beyond the returned truncation_point
        self.useful = 0  # ... whose term exp(n log S(y)) is nonzero
        self.panels = 0
        self.coords = defaultdict(int)  # samples * n per estimate route
        self._stack = []  # open spans: [name, seconds of enclosed spans]

    def span(self, name: str, fn):
        layer = name.split(".")[0]
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            outer = not stack or stack[-1][0].split(".")[0] != layer
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                s = spans[name]
                s.calls += 1
                s.outer += outer
                s.incl += dt
                s.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapped

    def _integral(self, fn):
        timed = self.span(SPI, fn)
        span, stack = self.spans[LOG_S], self._stack

        def wrapped(dist, n, tol):
            t_enter = time.perf_counter()
            ys, vs = [], []
            log_survival = dist.log_survival

            def traced(y):
                # a leaf span, kept lean: it runs about a thousand times per integral
                t0 = time.perf_counter()
                v = log_survival(y)
                dt = time.perf_counter() - t0
                span.calls += 1
                span.incl += dt
                stack[-1][1] += dt
                ys.append(y)
                vs.append(v)
                return v

            traced_dist = replace(dist, log_survival=traced)
            t0 = time.perf_counter()
            try:
                res = timed(traced_dist, n, tol)
            finally:
                t1 = time.perf_counter()
                y, v = _flat(ys), _flat(vs)
                self.evals += y.size
            self.panels += res.panels
            self.beyond_cut += int(np.count_nonzero(y > res.truncation_point))
            with np.errstate(over="ignore", invalid="ignore"):
                self.useful += int(np.count_nonzero(np.exp(n * v) > 0.0))
            # the caller's self time leaves out this wrapper's own bookkeeping
            if stack:
                stack[-1][1] += (t0 - t_enter) + (time.perf_counter() - t1)
            return res

        return wrapped

    def _estimate(self, name, fn):
        timed = self.span(name, fn)

        def wrapped(f, n, samples, seed):
            self.coords[name] += n * samples
            return timed(f, n, samples, seed)

        return wrapped

    def _builtin_function(self, fn):
        def wrapped(name):
            f = fn(name)
            return replace(f, eval=self.span("transfer.eval", f.eval))

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        cli, minima, transfer = self.sm.cli, self.sm.minima, self.sm.transfer
        patches = [
            (cli, "main", self.span("cli.main", cli.main)),
            (minima, "emin", self.span("minima.emin", minima.emin)),
            (minima, "expected_min", self.span("minima.expected_min", minima.expected_min)),
            (minima, "survival_power_integral", self._integral(minima.survival_power_integral)),
            (transfer, "transfer_identity_check",
             self.span("transfer.transfer_identity_check", transfer.transfer_identity_check)),
            (transfer, "builtin_function", self._builtin_function(transfer.builtin_function)),
        ] + [(transfer, name.split(".")[1], self._estimate(name, getattr(transfer, name.split(".")[1])))
             for name in ESTIMATES]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    # aggregates read by layer_metrics

    def integrals(self) -> int:
        return self.spans[SPI].calls

    def minima_results(self) -> int:
        return self.spans["minima.emin"].outer + self.spans["minima.expected_min"].outer

    def estimates(self) -> int:
        return sum(self.spans[name].calls for name in ESTIMATES)


def _flat(values) -> np.ndarray:
    if all(type(x) is float for x in values):
        return np.fromiter(values, float, len(values))
    return np.concatenate([np.ravel(np.asarray(x, dtype=float)) for x in values])


def layer_metrics(work: Tracer, probe: Tracer) -> dict:
    """Per-layer metrics from the workload's spans, or from the probe's for a
    layer the workload does not reach."""
    def pick(reached):
        return work if reached(work) else probe

    q = pick(lambda t: t.integrals())
    m = pick(lambda t: t.minima_results())
    c = pick(lambda t: t.spans["cli.main"].calls)
    t = pick(lambda t: t.estimates())
    d = pick(lambda t: t.spans[ESTIMATES[0]].calls)
    g = pick(lambda t: t.spans[ESTIMATES[1]].calls)
    ints = q.integrals()
    minima_self = sum(m.spans[f"minima.{name}"].self_time for name in ("emin", "expected_min"))
    estimate_s = sum(t.spans[name].incl for name in ESTIMATES)
    return {
        "quadrature.evals_per_integral": (q.evals / ints, "count"),
        "quadrature.evals_beyond_cut": (q.beyond_cut / ints, "count"),
        "quadrature.useful_eval_ratio": (q.useful / q.evals, "ratio"),
        "quadrature.panels_per_integral": (q.panels / ints, "count"),
        "quadrature.self_us": (1e6 * q.spans[SPI].self_time / ints, "us"),
        "quadrature.log_survival_us": (1e6 * q.spans[LOG_S].incl / ints, "us"),
        "minima.self_us": (1e6 * minima_self / m.minima_results(), "us"),
        "transfer.direct.coords_per_s": (d.coords[ESTIMATES[0]] / d.spans[ESTIMATES[0]].incl, "1/s"),
        "transfer.gaussian.coords_per_s": (g.coords[ESTIMATES[1]] / g.spans[ESTIMATES[1]].incl, "1/s"),
        "transfer.eval_share": (t.spans["transfer.eval"].incl / estimate_s, "ratio"),
        "transfer.chunks_per_estimate": (t.spans["transfer.eval"].calls / t.estimates(), "count"),
        "transfer.estimate_ms": (1e3 * estimate_s / t.estimates(), "ms"),
        "cli.self_s": (c.spans["cli.main"].self_time / c.rounds, "s"),
    }


def _best_per_call(loops) -> dict:
    """Interleave the loops rep by rep, so that a slow spell of the host hits
    all of them alike, and keep each loop's fastest rep."""
    best = {}
    for _ in range(MICRO_REPS):
        for name, (make_inputs, fn) in loops.items():
            xs = make_inputs()
            t0 = time.perf_counter()
            for x in xs:
                fn(x)
            dt = (time.perf_counter() - t0) / len(xs)
            best[name] = min(best.get(name, math.inf), dt)
    return best


def micro_metrics(sm, seed: int) -> dict:
    """Timed loops over fresh inputs each rep; ns per call, best of reps."""
    rng = random.Random(f"micro:{seed}")
    special, d = sm.special, sm.distributions

    def uniform(lo, hi, k=2000):
        return lambda: [rng.uniform(lo, hi) for _ in range(k)]

    loops = {
        "special.log_erfc_small.ns": (uniform(0.0, 0.5), special.log_erfc),
        "special.log_erfc_mid.ns": (uniform(0.5, 25.0), special.log_erfc),
        # the dyadic tail scan visits y0 * 2^k for k < 600
        "special.log_erfc_asym.ns": (lambda: [25.0 * 2.0 ** rng.uniform(0, 600) for _ in range(2000)],
                                     special.log_erfc),
        "special.gamma_ratio.ns": (lambda: [rng.randint(1, 10**6) for _ in range(2000)],
                                   lambda n: special.gamma_ratio(n, 1)),
    }
    dists = {"half_normal": d.half_normal(), "exponential": d.exponential(1.3),
             "uniform01": d.uniform01(), "power_law": d.power_law(3.3), "heavy_tail": d.heavy_tail(2.2)}
    for name, dist in dists.items():
        loops[f"distributions.{name}.log_survival_ns"] = (uniform(0.0, 1.0), dist.log_survival)
    out = {name: (1e9 * sec, "ns") for name, sec in _best_per_call(loops).items()}

    def pyloop(_):
        s = 0
        for i in range(100_000):
            s += i * i
        return s

    host = {
        "host.pyloop_ms": (lambda: [None], pyloop),
        "host.rng_ms": (lambda: [rng.getrandbits(63)],
                        lambda s: np.random.default_rng(s).standard_normal(1_000_000)),
    }
    out.update({name: (1e3 * sec, "ms") for name, sec in _best_per_call(host).items()})
    return out
