#!/usr/bin/env python3
"""TailGuard benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 10 --trace 0

Builds the benchmark binary from ../src and perfbench/ into the build
directory (``$CARGO_TARGET_DIR/perfbench``, default ``.bench_build/perfbench``),
runs one workload and relays its report. The last line of stdout is the
JSON result; it is checked against the metric lists in BENCHMARK.json.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-paper", "sim-fleet", "serve-inproc", "serve-loopback"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "tg_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the report only.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tg_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.join(os.path.abspath(target), "perfbench"))

    # Every workload runs the library defaults: no TAILGUARD_* knob may
    # reach the program from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAILGUARD_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("benchmark binary exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("last line of the report is not JSON")

    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write(done.stdout)
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
