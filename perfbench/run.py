#!/usr/bin/env python3
"""Build and run the rrr end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload bgp_corpus --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench with CMake, then runs one workload. Build output goes
to standard error; the benchmark's report goes to standard output, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero without a result when the build fails, the flags are
malformed, or the run does not finish in time.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
BINARY = os.path.join(BUILD, "rrr_perfbench")
WORKLOADS = ("bgp_corpus", "trace_feed", "live_service")
RUN_TIMEOUT_S = 175


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="rrr end-to-end benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in 1..3600")
    return args


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "rrr_perfbench"])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(SCRATCH, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", SCRATCH]
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
