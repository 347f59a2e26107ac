#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads paper-study,long-replay]
        [--seed 1000] [--sets 2] [--trace 0]

Runs each workload --runs times through perfbench/run.py, each run in a
fresh process with its own seed (seed, seed+1, ...), and prints for every
metric its median, first and third quartile and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. A spread
above the bound is flagged FAIL, above a third of it "warn". With --sets 2
the whole series runs twice and each metric's second median is compared
with the first: a change by more than the bound, better or worse, is
flagged FAIL.
Exit code 1 if anything is flagged FAIL.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result["metrics"]


def run_set(workloads, runs, seed, seconds, trace):
    """Returns {workload: {metric: [values]}}; runs are interleaved across workloads."""
    values = {w: {} for w in workloads}
    for i in range(runs):
        for w in workloads:
            metrics = run_once(w, seed + i, seconds, trace)
            for name, m in metrics.items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"  run {i + 1}/{runs} {w}: " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()),
                  file=sys.stderr, flush=True)
    return values


def worse_by(first, second, better):
    """Relative change of `second` against `first`, positive when worse."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    metric_specs = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    by_name = {m["name"]: m for m in metric_specs}
    sets = [run_set(workloads, args.runs, args.seed, args.seconds, args.trace)
            for _ in range(args.sets)]

    failed = False
    print(f"{'workload':14} {'metric':30} {'bound':>6}  per set: median [q1, q3] spread"
          f"  | drift  flags")
    for w in workloads:
        for name, m in by_name.items():
            bound = m.get("bound")
            flags = []
            cols = []
            medians = []
            for s in sets:
                vals = s[w].get(name, [])
                q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) >= 2 else (0, 0, 0)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.4f}")
                if bound is not None:
                    if spread > bound:
                        flags.append("FAIL spread")
                    elif spread > bound / 3:
                        flags.append("warn spread")
            drift = worse_by(medians[0], medians[-1], m["better"]) if len(sets) == 2 else 0.0
            if bound is not None and abs(drift) > bound:
                flags.append("FAIL drift")
            failed = failed or any(f.startswith("FAIL") for f in flags)
            print(f"{w:14} {name:30} {bound if bound is not None else '-':>6}  "
                  f"{' ; '.join(cols)}  | {drift:+.4f}  {' '.join(flags)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
