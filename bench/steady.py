"""Steadiness check: run the benchmark over several seeds and compare sets of
runs against the bounds in BENCHMARK.json.

    python3 bench/steady.py run --runs 10 --out bench/results/a.jsonl
    python3 bench/steady.py run --runs 10 --first-seed 100 --out bench/results/b.jsonl
    python3 bench/steady.py check bench/results/a.jsonl bench/results/b.jsonl

`run` runs every workload of BENCHMARK.json with --trace 0.  `check` with
one file reports, per workload and end-to-end metric, the spread
(q3 - q1) / median of its runs against the metric's bound; every spread must
stay within the bound, and should stay within a third of it.  With two files
it also requires the two medians to differ by no more than the bound, in
either direction, and the share of failed operations to be identical.  Exit
code 0 when every requirement holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(args) -> int:
    spec = load_spec()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as out:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(args.first_seed, args.first_seed + args.runs):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
                summary = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed}: {summary}", file=sys.stderr)
    return 0


def _load(path: str) -> dict:
    """workload -> list of results."""
    sets = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            sets[rec["workload"]].append(rec["result"])
    return sets


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def check(args) -> int:
    spec = load_spec()
    sets = [_load(path) for path in args.files]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [s.get(workload, []) for s in sets]
        if any(len(r) < 2 for r in runs):
            print(f"{workload}: fewer than two runs")
            ok = False
            continue
        for r in runs:
            if not all(res["correct"] for res in r):
                print(f"{workload}: a run reported correct = false")
                ok = False
        shares = [{res["failed"] / res["attempted"] for res in r} for r in runs]
        if len(set().union(*shares)) != 1:
            print(f"{workload}: failed share differs between runs: {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [_spread([res["metrics"][name]["value"] for res in r]) for r in runs]
            line = f"{workload:11s} {name:17s} bound {bound:.2f}"
            for median, spread in stats:
                flag = ""
                if spread > bound:
                    flag, ok = " OVER", False
                elif spread > bound / 3:
                    flag = " (above bound/3)"
                line += f" | median {median:.6g} spread {spread:.4f}{flag}"
            if len(stats) == 2:
                (m1, _), (m2, _) = stats
                change = m2 / m1 - 1.0
                line += f" | second / first - 1 = {change:+.4f}"
                if abs(change) > bound:
                    line += " OVER"
                    ok = False
            print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run the benchmark over consecutive seeds")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    c = sub.add_parser("check", help="compare one or two sets of runs against the bounds")
    c.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "check" and len(args.files) > 2:
        parser.error("check takes one or two files")
    return run(args) if args.cmd == "run" else check(args)


if __name__ == "__main__":
    sys.exit(main())
