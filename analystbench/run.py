#!/usr/bin/env python3
"""Builds and runs the statdb analyst-loop benchmark.

Run from the root of a statdb checkout:

    python3 analystbench/run.py --workload explore --seed 1 --seconds 45 \
        --trace 0

Workloads: explore, clean, multi_analyst, or `all` (each workload with
tracing off and then on). The first run configures and builds
analystbench/ (which compiles ../src) with CMake into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the result
object of the run: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["explore", "clean", "multi_analyst"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "analystbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if shutil.which("cmake") is None:
        sys.exit("run.py: cmake not found")
    out = build_dir()
    steps = []
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "analyst_bench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(out, "analyst_bench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; echoes its report and returns (code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed,
                               args.seconds, args.trace)
        if result is None and code == 0:
            code = 1
        return code

    # Every workload, untraced then traced; the summary line merges them
    # with the workload name in front of each metric.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(binary, workload, args.seed, args.seconds,
                                   trace)
            worst = worst or code
            if result is None:
                summary["correct"] = False
                worst = worst or 1
                continue
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
