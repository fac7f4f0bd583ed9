#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload warm_zoo --seed 1 --seconds 20 --trace 0

The first call configures and compiles the system and the e2ebench binary into
.bench_build/e2ebench (or $CARGO_TARGET_DIR/e2ebench); later calls rebuild
only what changed. Build output goes to stderr, so the last line of stdout is
the binary's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_zoo", "pipeline_mix", "cold_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "e2ebench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(step))
    return os.path.join(out, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(build_dir())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    output = done.stdout.decode()
    if done.returncode != 0:
        # A failed run reports no result, even one printed before the failure.
        sys.stdout.write("".join(line for line in output.splitlines(True)
                                 if not line.startswith('{"correct"')))
        sys.exit("e2ebench: benchmark exited with code %d" % done.returncode)
    sys.stdout.write(output)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
