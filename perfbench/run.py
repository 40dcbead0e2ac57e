#!/usr/bin/env python3
"""Runs one workload of the inflog benchmark and prints its result.

    python3 perfbench/run.py --workload batch|serve --seed N \
        --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout. It builds perfbench/ (and the library
through the repo's own CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build, then runs the workload binary. Every line but the last goes
to stderr; the last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
spends half of --seconds on an untraced run and half on a traced run, and
reports the traced run's per-layer metrics plus harness.trace_overhead:
the traced op1 median latency over the untraced one, minus 1. The traced
run's spans are written to <build dir>/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BINARY = "inflog_perfbench"
RUN_TIMEOUT_S = 170  # for all workload processes of one invocation together

# What op1/op2 stand for on each workload, for the human-readable lines:
# generic name -> (workload-specific name, unit, scale).
ALIASES = {
    "batch": {
        "op1_ms.p50": ("inflationary_ms.p50", "ms", 1),
        "op2_ms.p50": ("stratified_ms.p50", "ms", 1),
        "ops_per_s": ("evaluations_per_s", "1/s", 1),
    },
    "serve": {
        "op1_ms.p50": ("query_us.p50", "us", 1000),
        "op2_ms.p50": ("update_ms.p50", "ms", 1),
        "ops_per_s": ("queries_per_s", "1/s", 1),
    },
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at the checkout root: "
                           "run from the root of an inflog checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", BINARY,
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, BINARY)


def run_binary(binary, args, deadline):
    """Runs the workload binary; returns its parsed last stdout line."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"workload did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload exited with code {done.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["batch", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small instances (the self-check)")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")

    if args.trace == 0:
        result = run_binary(binary, common + ["--seconds", str(args.seconds),
                                              "--trace", "0"], deadline)
    else:
        half = str(args.seconds / 2)
        untraced = run_binary(binary, common + ["--seconds", half,
                                                "--trace", "0"], deadline)
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        result = run_binary(binary, common + [
            "--seconds", half, "--trace", "1", "--trace-out", trace_file],
            deadline)
        base = untraced["metrics"]["op1_ms.p50"]["value"]
        traced = result.pop("extra")["op1_ms.p50"]["value"]
        if base <= 0:
            raise RuntimeError("the untraced run timed no op1")
        result["metrics"]["harness.trace_overhead"] = {
            "value": traced / base - 1, "unit": "ratio"}
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["correct"] = result["correct"] and untraced["correct"]

    aliases = ALIASES[args.workload]
    for name, metric in result["metrics"].items():
        line = f"{name} = {metric['value']:.6g} {metric['unit']}"
        if name in aliases:
            alias, unit, scale = aliases[name]
            line += f"  ({alias} = {metric['value'] * scale:.6g} {unit})"
        log(line)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
