#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

On first use this configures and builds perfbench/ (which compiles the
library sources under src/) into .bench_build/perfbench; later runs
rebuild incrementally. It then runs the perfbench binary, prints every
metric with its unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding exactly the metrics BENCHMARK.json lists for the mode:
end_to_end with --trace 0, per_layer with --trace 1. Exits non-zero,
without a result line, when the sources are missing, the build fails,
the run fails, or an output decrypts wrong.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1)])
        with open(log_path, "w") as log:
            for step in steps:
                try:
                    done = subprocess.run(step, cwd=ROOT, stdout=log,
                                          stderr=subprocess.STDOUT,
                                          timeout=BUILD_TIMEOUT_S)
                except (OSError, subprocess.TimeoutExpired) as err:
                    fail(f"build step {step[:2]} failed: {err}")
                if done.returncode != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail(f"build step {step[:2]} exited {done.returncode}")


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}", 2)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(),
               "--spans-dir", os.path.join(BUILD, "spans")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"run exited {done.returncode} without a result")
    if done.returncode != 0 or not raw["correct"]:
        fail(f"run exited {done.returncode}; correct={raw['correct']}")

    metrics = {}
    print(f"{'metric':<34} {'value':>16} {'unit':<6} samples")
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        print(f"{m['name']:<34} {got['value']:>16.6g} {got['unit']:<6} "
              f"{got['samples']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
