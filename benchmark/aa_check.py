#!/usr/bin/env python3
"""A/A check: the same code measured twice must agree with itself.

Runs every workload in two interleaved sets (A1 B1 A2 B2 ...) of --runs
runs each, every run with another seed, and prints for each end-to-end
metric the two set medians, the gap by which B is worse than A, the
spread of each set (distance between its first and third quartile over
its median) and the bound from BENCHMARK.json. Then runs the traced
binary twice per workload on one seed and compares every count and the
fingerprint of the first x. Exits 1 when a gap or a spread is above the
bound, or when a count does not repeat.

    python3 benchmark/aa_check.py [--runs 5] [--workloads a,b]
"""
import argparse
import json
import statistics
import subprocess
import sys

parser = argparse.ArgumentParser()
parser.add_argument("--runs", type=int, default=5)
parser.add_argument("--workloads", default="")
opts = parser.parse_args()

spec = json.load(open("BENCHMARK.json"))
names = [w["name"] for w in spec["workloads"]]
if opts.workloads:
    names = [n for n in names if n in opts.workloads.split(",")]


def run(workload, seed, trace=0):
    """One run: its metric values and the fingerprint of its first x."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    stamp, result = (json.loads(line) for line in out.strip().splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {k: v["value"] for k, v in result["metrics"].items()}, stamp["stamp"]["x_fingerprint"]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


failed = False
print(f"{'workload':<16}{'metric':<13}{'median A':>12}{'median B':>12}{'gap':>8}"
      f"{'spread A':>10}{'spread B':>10}{'bound':>7}")
for workload in names:
    sets = ([], [])
    for i in range(opts.runs):
        sets[0].append(run(workload, 1 + i)[0])
        sets[1].append(run(workload, 1 + opts.runs + i)[0])
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [r[name] for r in sets[0]]
        b = [r[name] for r in sets[1]]
        ma, mb = statistics.median(a), statistics.median(b)
        gap = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        bad = max(abs(gap), sa, sb) > bound
        failed |= bad
        print(f"{workload:<16}{name:<13}{ma:>12.6g}{mb:>12.6g}{gap:>+8.2%}"
              f"{sa:>10.2%}{sb:>10.2%}{bound:>7.2f}{'  FAIL' if bad else ''}", flush=True)

# Counts must repeat exactly for a seed.
exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "flop", "bytes")]
for workload in names:
    (first, x1), (second, x2) = run(workload, 1, trace=1), run(workload, 1, trace=1)
    differing = [n for n in exact if first[n] != second[n]] + (["x_fingerprint"] if x1 != x2 else [])
    failed |= bool(differing)
    print(f"{workload:<16}{len(exact)} counts and the x fingerprint over two traced runs: "
          f"{'differ: ' + ', '.join(differing) + '  FAIL' if differing else 'repeat exactly'}", flush=True)
sys.exit(1 if failed else 0)
