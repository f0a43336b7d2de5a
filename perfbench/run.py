#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sim|check|native --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later calls only check the build is up to date. The driver
binary prints a host block, fixed-seed reference values and, last, the
result object. This script compares the reference values against
perfbench/expected.json, folds any mismatch into "correct", and prints
the result object as the last line of standard output.

Exits 1 without a result when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "pwf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pwf_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim", "check", "native"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(os.path.abspath(os.path.join(build_root, "perfbench")))
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        fail("no output")
    result = json.loads(lines[-1])

    for line in lines[:-1]:
        print(line)
        golden = json.loads(line).get("golden", {})
        for workload, values in golden.items():
            want = expected.get(workload, {})
            for key, value in values.items():
                if want.get(key) != value:
                    print(f"perfbench: {workload}.{key} = {value}, expected "
                          f"{want.get(key)}", file=sys.stderr)
                    result["correct"] = False
            for key in want.keys() - values.keys():
                print(f"perfbench: {workload}.{key} was not reported",
                      file=sys.stderr)
                result["correct"] = False
    print(f"perfbench: {args.workload} ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
