"""Fast tests of the benchmark itself: the oracles, BENCHMARK.json, and the
metric names the benchmark prints.

    python3 -m pytest -q bench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import mpmath as mp
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def close(a, b, digits=30):
    with mp.workdps(oracle.DPS):
        return abs(mp.mpf(a) - mp.mpf(b)) <= mp.mpf(10) ** -digits * abs(mp.mpf(b))


def test_erfc_power_integral_closed_forms():
    with mp.workdps(oracle.DPS):
        root_pi = mp.sqrt(mp.pi)
        assert close(oracle.erfc_power_integral(1), 1 / root_pi)
        assert close(oracle.erfc_power_integral(2), (2 - mp.sqrt(2)) / root_pi)
        # E[max of two] = E|Z1| + E|Z2| - E[min of two]
        assert close(oracle.erf_max_integral(2), mp.sqrt(2) / root_pi)
        assert close(oracle.erf_max_integral(1), 1 / root_pi)


def test_cache_matches_fresh_integrals():
    with open(oracle.CACHE_PATH) as fh:
        cache = json.load(fh)
    assert cache["dps"] == oracle.DPS
    for n in (1, 7, 1000, 10**6):
        assert close(cache["erfc_power_integral"][str(n)], oracle.erfc_power_integral(n))
    assert close(cache["erf_max_integral"]["40"], oracle.erf_max_integral(40))


def test_cache_covers_every_workload_input():
    o = oracle.Oracle()
    for n in oracle.PROBE_NS:
        assert o.nmin(n) > 0 and o.emin(n) > 0
    for n in oracle.DECADE_NS:
        assert o.nmin(n) > 0
    for fn, n in WORKLOADS["mc-sphere"].PAIRS:
        assert o.sphere_mean(fn, n) > 0
    for n in oracle.MC_SPHERE_NS:
        assert 0 < o.sphere_mean("min-abs", n) < o.sphere_mean("abs-first", n) < o.sphere_mean("max-abs", n)


def test_gamma_half_ratio():
    with mp.workdps(oracle.DPS):
        assert close(oracle.gamma_half_ratio(1), mp.sqrt(mp.pi))
        assert close(oracle.gamma_half_ratio(2), 2 / mp.sqrt(mp.pi))


def test_closed_forms_against_quadrature():
    with mp.workdps(oracle.DPS):
        for k, n in ((2.0, 1), (3.3, 7)):
            ref = mp.quad(lambda y: (1 - y**k) ** n, [0, 1])
            assert close(oracle.power_law_min(k, n), ref)
        ref = mp.quad(lambda y: (1 + y) ** (-3 * mp.mpf(1.7)), [0, 1, mp.inf])
        assert close(oracle.heavy_tail_min(1.7, 3), ref)
        ref = mp.quad(lambda y: mp.exp(-4 * mp.mpf(0.8) * y), [0, mp.inf])
        assert close(oracle.exponential_min(0.8, 4), ref)
        assert close(oracle.uniform01_min(9), mp.mpf(1) / 10)


def test_sphere_means_are_consistent():
    o = oracle.Oracle()
    for n in oracle.MC_SPHERE_NS:
        assert o.sphere_mean("sum-abs", n) == pytest.approx(n * o.sphere_mean("abs-first", n), rel=1e-15)
    # on the circle the mean of |cos| is 2/pi and min(|cos|,|sin|) is (4-2 sqrt 2)/pi
    assert o.sphere_mean("abs-first", 2) == pytest.approx(2 / mp.pi, rel=1e-15)
    assert o.sphere_mean("min-abs", 2) == pytest.approx((4 - 2 * mp.sqrt(2)) / mp.pi, rel=1e-15)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_shape():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in s["workloads"] + s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in s["end_to_end"] + s["per_layer"])
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in s["workloads"])
    # 4 + 22 * workloads runs, each with set-up on top of run_seconds, must fit in 3420 s
    assert (4 + 22 * len(s["workloads"])) * s["run_seconds"] < 3420 / 1.5


def run_bench(cwd, *args):
    cmd = spec()["command"] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = run_bench(ROOT, "--workload", "dist-grid", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the one known fault: heavy_tail(0.35) at n = 3, once per round
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = run_bench(tmp_path, "--workload", "dist-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
