#!/usr/bin/env python3
"""External chaos harness: kill -9 loop + storage-fault sweep (DESIGN.md §14).

The process-level half of the chaos harness (the in-process grid is the
test Supervisor.CrashWindowByIoSeedGridRecoversByteIdentically in
tests/recovery_test.cpp). For each (kill attempt, io-fault seed) point:

  1. A clean baseline fig11 run records its rrr-stats-v1 envelope.
  2. A checkpointed run under --io-fault-plan is started and killed with
     SIGKILL after a seeded random delay — a real crash: stranded *.tmp
     files, possibly a half-appended WAL frame.
  3. The run is restarted with --resume --supervise. The supervisor
     scrubs the crash debris (quarantining it into corrupt/, never
     deleting, never silently reading) and finishes the run.
  4. The point passes when the recovered envelope's `semantic` member is
     byte-identical to the clean baseline's and no stray *.tmp remains
     outside corrupt/.

A kill that lands before the binary ever opens the checkpoint directory,
or after the run already finished, still restarts and must still converge
to the identical answer — those points are recorded with phase "early" /
"finished" rather than skipped.

Writes a BENCH_chaos_recovery.json summary (schema rrr-chaos-v1).

Usage: chaos_smoke.py /path/to/fig11_archival_reuse [options] [-- extra...]
  --kills N        kill/restart points to run (default 3)
  --io-seeds N     io-fault seeds per kill point (default 2)
  --fault-plan S   io-fault plan spec (default a mixed mostly-transient one)
  --out F          summary path (default BENCH_chaos_recovery.json)
  --seed N         RNG seed for kill delays (default 1)
Everything after `--` is forwarded to every fig11 invocation.
"""

import argparse
import json
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_WORLD = ["--days", "2", "--pairs", "150"]
DEFAULT_PLAN = ("torn=0.02,bitflip=0.01,enospc=0.01,eio=0.005,"
                "crash_rename=0.01,transient=0.9")
DEFAULT_RETRY = "attempts=4,base_us=50,max_us=1000"


def run(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"command failed ({proc.returncode}): {' '.join(cmd)}")
    return proc.stdout


def semantic_bytes(path):
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    if envelope.get("schema") != "rrr-stats-v1":
        sys.exit(f"{path}: unexpected schema {envelope.get('schema')!r}")
    return json.dumps([r["semantic"] for r in envelope["runs"]],
                      sort_keys=False)


def stray_tmp(ckpt_dir):
    """*.tmp files anywhere under ckpt_dir except inside corrupt/."""
    stray = []
    for path in Path(ckpt_dir).rglob("*.tmp"):
        if "corrupt" not in path.parts:
            stray.append(str(path))
    return stray


def quarantined(ckpt_dir):
    return sum(1 for _ in Path(ckpt_dir).rglob("corrupt/*"))


def main():
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        split = argv.index("--")
        argv, extra = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("binary")
    parser.add_argument("--kills", type=int, default=3)
    parser.add_argument("--io-seeds", type=int, default=2)
    parser.add_argument("--fault-plan", default=DEFAULT_PLAN)
    parser.add_argument("--retry", default=DEFAULT_RETRY)
    parser.add_argument("--out", default="BENCH_chaos_recovery.json")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    world = extra or DEFAULT_WORLD
    rng = random.Random(args.seed)

    grid = []
    with tempfile.TemporaryDirectory(prefix="rrr-chaos-smoke-") as scratch:
        scratch = Path(scratch)
        clean_json = scratch / "clean.json"
        run([args.binary, *world, "--stats-json", str(clean_json)])
        clean = semantic_bytes(clean_json)
        print(f"baseline: clean semantic stats captured "
              f"({len(clean)} bytes serialized)")

        # Calibrate kill delays against one full checkpointed (unfaulted)
        # run, so kills land inside the run's lifetime.
        t0 = time.monotonic()
        calib_dir = scratch / "calib"
        run([args.binary, *world, "--checkpoint-dir", str(calib_dir)])
        full_runtime = time.monotonic() - t0

        for ki in range(args.kills):
            for si in range(args.io_seeds):
                io_seed = args.seed + si
                label = f"k{ki}s{io_seed}"
                ckpt = scratch / f"ckpt-{label}"
                chaos_json = scratch / f"chaos-{label}.json"
                plan = f"{args.fault_plan},seed={io_seed}"
                cmd = [args.binary, *world,
                       "--checkpoint-dir", str(ckpt),
                       "--io-fault-plan", plan,
                       "--io-retry", args.retry,
                       "--stats-json", str(chaos_json)]

                # Phase 1: start, then SIGKILL after a seeded delay inside
                # the calibrated runtime.
                delay = rng.uniform(0.05, max(0.1, full_runtime * 0.9))
                proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                        stderr=subprocess.STDOUT)
                time.sleep(delay)
                phase = "killed"
                if proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
                elif proc.returncode == 0:
                    phase = "finished"  # kill landed after a clean exit
                else:
                    phase = "died"  # fault rate killed it first (no retry
                    #                 supervisor in phase 1 — that is the
                    #                 restart's job)

                # Phase 2: supervised restart from the same directory.
                out = run([args.binary, *world,
                           "--checkpoint-dir", str(ckpt),
                           "--resume", str(ckpt),
                           "--io-fault-plan", plan,
                           "--io-retry", args.retry,
                           "--supervise",
                           "--stats-json", str(chaos_json)])

                recoveries = 0
                for line in out.splitlines():
                    if line.startswith("supervised: recovered"):
                        recoveries = int(line.split()[2])
                identical = semantic_bytes(chaos_json) == clean
                stray = stray_tmp(ckpt)
                point = {
                    "kill": ki,
                    "io_seed": io_seed,
                    "delay_s": round(delay, 3),
                    "phase": phase,
                    "recoveries": recoveries,
                    "semantic_identical": identical,
                    "stray_tmp": len(stray),
                    "quarantined": quarantined(ckpt),
                    "pass": identical and not stray,
                }
                grid.append(point)
                status = "PASS" if point["pass"] else "FAIL"
                print(f"{label}: {status} phase={phase} "
                      f"delay={point['delay_s']}s "
                      f"recoveries={recoveries} "
                      f"quarantined={point['quarantined']} "
                      f"stray_tmp={len(stray)}")
                if stray:
                    for path in stray:
                        print(f"  stray: {path}")

    all_pass = all(p["pass"] for p in grid)
    summary = {
        "schema": "rrr-chaos-v1",
        "mode": "kill9",
        "grid": grid,
        "pass": all_pass,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"chaos smoke: {len(grid)} point(s), "
          f"{'all recovered byte-identical' if all_pass else 'FAILURES'}; "
          f"wrote {args.out}")
    sys.exit(0 if all_pass else 1)


if __name__ == "__main__":
    main()
