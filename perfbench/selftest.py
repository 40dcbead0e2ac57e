#!/usr/bin/env python3
"""Self-check of the benchmark: runs every workload at a tiny size.

    python3 perfbench/selftest.py

Run it from the root of a checkout. For two seeds, each workload runs once
untraced and once traced (one second each). The check fails unless every
run exits 0, reports zero failed ops, is marked correct, and emits exactly
the end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
names, each with its declared unit and a finite value.
"""

import json
import math
import os
import subprocess
import sys

SEEDS = (1, 2)


def check_run(workload, seed, trace, expected):
    """Runs one tiny workload; returns the problems found (empty if none)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if done.returncode != 0:
        return [f"exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"]:
        problems.append(f"{result['failed']} failed of {result['attempted']}"
                        f"\n{done.stderr[-2000:]}")
    if result["attempted"] < 1:
        problems.append("no ops attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in got if n in expected and got[n] != expected[n])
        problems.append(f"missing {missing}, unexpected {extra}, "
                        f"wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"{name} = {m['value']}")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                label = f"{workload} seed={seed} trace={trace}"
                problems = check_run(workload, seed, trace, expected[trace])
                print(f"{'FAILED' if problems else 'ok'} {label}", flush=True)
                for problem in problems:
                    print(f"  {problem}")
                failed = failed or bool(problems)
    print("selftest:", "FAILED" if failed else "passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
