#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints, per metric, the median
and the interquartile range as a share of the median.

    python3 hostbench/spread.py --workload fwd_bare --seeds 1-10 [--trace 1]
        [--seconds 10] [--inject none]

Run it from the repository root. It runs the command in BENCHMARK.json and
also prints each run's correctness and operations attempted and failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--inject", default="none")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", a.trace,
        ]
        if a.inject != "none":
            cmd += ["--inject", a.inject]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} attempted "
              f"{result['attempted']} failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{'metric':<34} {'median':>14} {'iqr/median':>10}  values")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:<34} {med:>14.6g} {share:>10.4f}  "
              + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
