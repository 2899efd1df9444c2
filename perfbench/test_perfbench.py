#!/usr/bin/env python3
"""The benchmark's own test.

Usage (from the repository root; builds on first use, takes a few minutes):

    python3 perfbench/test_perfbench.py

For every workload in BENCHMARK.json, a short untraced and a short traced
run must finish with zero failed operations and correct outputs, and print
exactly the end-to-end (respectively per-layer) metrics BENCHMARK.json names,
each with its unit. The traced run's per-window parts (engine close, hook,
residual) must add up to each window's wall time. Malformed flags and a
checkout without the repository's sources must be refused without a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
SHORT_SECONDS = 2

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900,
                          check=False)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class WorkloadRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "3",
                    "--seconds", str(SHORT_SECONDS), "--trace", str(trace)])
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual([m["name"] for m in expected],
                         list(result["metrics"]))
        for metric in expected:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))
            if not trace:
                self.assertGreater(printed["value"], 0, metric["name"])
        return result

    def check_window_parts(self, workload):
        path = os.path.join(SCRATCH, "window-parts-%s.json" % workload)
        with open(path) as f:
            parts = json.load(f)
        self.assertTrue(parts)
        for part in parts:
            total = part["close_ms"] + part["hook_ms"] + part["residual_ms"]
            self.assertAlmostEqual(total, part["window_ms"], delta=1e-9)
            for key in ("close_ms", "hook_ms"):
                self.assertGreaterEqual(part[key], 0.0)
            self.assertGreaterEqual(part["residual_ms"], -1e-3)

    def test_workloads(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, 0)
            with self.subTest(workload=workload, trace=1):
                result = self.check_run(workload, 1)
                self.check_window_parts(workload)
                metrics = result["metrics"]
                serve_active = metrics["serve.queries"]["value"] > 0
                self.assertEqual(serve_active, workload == "live_service")
                store_active = metrics["store.wal_ops"]["value"] > 0
                self.assertEqual(store_active, workload == "live_service")


class Refusals(unittest.TestCase):
    def test_malformed_flags(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "trace_feed", "--seed", "1x",
                      "--seconds", "1", "--trace", "0"],
                     ["--workload", "trace_feed", "--seed", "1",
                      "--seconds", "1", "--trace", "0", "--extra", "1"]):
            proc = run(args)
            self.assertNotEqual(proc.returncode, 0, args)
            self.assertIsNone(result_of(proc), args)

    def test_binary_refuses_unknown_flag(self):
        binary = os.path.join(ROOT, ".bench_build", "perfbench",
                              "rrr_perfbench")
        if not os.path.exists(binary):
            self.skipTest("benchmark not built yet")
        proc = subprocess.run(
            [binary, "--workload", "trace_feed", "--seed", "1", "--seconds",
             "1", "--trace", "0", "--scratch", SCRATCH, "--threads", "2"],
            capture_output=True, text=True, timeout=60, check=False)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")

    def test_refused_without_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "perfbench-alone")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(alone, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        proc = run(["--workload", "trace_feed", "--seed", "1", "--seconds",
                    "1", "--trace", "0"], cwd=alone,
                   script=os.path.join(alone, "perfbench", "run.py"))
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_of(proc))


if __name__ == "__main__":
    unittest.main()
