#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are across seeds.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workloads trace_feed --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --out .bench_build/steady.json

Runs perfbench/run.py once per (workload, seed), untraced, for
BENCHMARK.json's run_seconds, then prints for every end-to-end metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside a third
of the metric's bound. The wall-clock twins of the timings, from each run's
"wall clock:" line, are printed the same way. Exits non-zero if a run fails
or reports correct=false.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def wall_clock(stdout):
    """The wall-clock figures a run prints beside its reference-speed ones."""
    for line in stdout.splitlines():
        if line.startswith("wall clock:"):
            head = line[len("wall clock:"):].split(";")[0]
            return {name: float(value)
                    for name, value in re.findall(r"(\w+) ([0-9.]+)", head)}
    return {}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (%d): %s" %
                           (workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: incorrect result %s" %
                           (workload, seed, lines[-1]))
    return result, wall_clock(proc.stdout)


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = seed_range(args.seeds)
    report = {}
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        walls = {}
        for seed in seeds:
            result, wall = run_once(workload, seed, bench["run_seconds"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            for name, value in wall.items():
                walls.setdefault(name, []).append(value)
            print("%s seed %d: %s | wall %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, v[-1]) for n, v in values.items()), " ".join(
                "%s=%.4g" % (n, v[-1]) for n, v in walls.items())),
                flush=True)
        report[workload] = {"metrics": values, "wall_clock": walls}
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            width = spread(vals)
            print("  %-21s median %-12.5g spread %6.3f  (bound %.3f, third "
                  "%.3f)%s" % (metric["name"], statistics.median(vals), width,
                               metric["bound"], metric["bound"] / 3,
                               "" if width <= metric["bound"] / 3
                               else "  <-- wide"),
                  flush=True)
        for name, vals in walls.items():
            print("  wall %-16s median %-12.5g spread %6.3f" %
                  (name, statistics.median(vals), spread(vals)), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    try:
        main()
    except RuntimeError as error:
        print("steadiness: %s" % error, file=sys.stderr)
        sys.exit(1)
