#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-study --seed 19960901 \
        --seconds 25 --trace 0

Run from the root of the repository. The build (a Release build of the
library and the perfbench program) goes to $CARGO_TARGET_DIR, or
.bench_build when that is unset. Each workload runs in a fresh process; the
last stdout line is the result JSON. `--workload all` runs every workload
in turn and prints each one's metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-study", "long-replay", "degraded-obs")
DEFAULT_SEED = 19960901
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the perfbench program; returns its path."""
    build_dir = os.path.join(target_dir(), "perfbench")
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process, echoing its output; returns the exit code."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", os.path.join(target_dir(), "work"),
           "--digests", os.path.join(HERE, "expected_digests.txt")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.monotonic()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    print(f"# build checked in {time.monotonic() - t0:.1f} s", file=sys.stderr)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in workloads:
        code = run_workload(binary, w, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
