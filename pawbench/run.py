#!/usr/bin/env python3
"""Builds paw_bench from this checkout and runs one workload.

    python3 pawbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a paw checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is reused by later runs. paw_bench's own output
is passed through; the last line printed is one JSON object with the keys
correct, attempted, failed and metrics, holding the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "pawbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; quiet unless it fails."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-6000:])
            fail("build failed: " + " ".join(step))


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src", os.path.join("tools", "pawctl.cc"),
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a paw checkout: %s is missing under %s" % (needed, ROOT))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    command = [os.path.join(build_dir, "paw_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PAWBENCH_GIT_SHA=git_sha())
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # pawd children die with paw_bench (PR_SET_PDEATHSIG).
        shutil.rmtree(os.path.join(build_dir, "runs"), ignore_errors=True)
        fail("paw_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith('{"bench":"paw_bench"'):
            result = json.loads(line)
    if result is None:
        fail("paw_bench printed no result (exit code %d)" % done.returncode)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("paw_bench did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
