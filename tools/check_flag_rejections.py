#!/usr/bin/env python3
"""Bench misconfiguration smoke test.

Runs the fig11 archival-reuse harness, the serving sweep, the fault sweep
and the chaos sweep with one bad setting at a time: a flag name the harness
does not declare (misspelled, retired, or one the harness sets itself, such
as the chaos sweep's per-grid-point checkpoint and resume flags), a number
with trailing junk or that is not finite, a flag missing its value, an
unparseable fault-plan or retry spec (as a flag or through the
RRR_FAULT_PLAN / RRR_IO_FAULT_PLAN environment variables), and serving grid
points that are not SxT. Every run must exit with status exactly 2 and name
the offending setting on stderr instead of running on a fallback. The world
flags are small, so a harness that wrongly accepts a case finishes quickly
and fails the check.

Usage: check_flag_rejections.py /path/to/fig11_archival_reuse \
           /path/to/fig_serving_sweep /path/to/fig_fault_sweep \
           /path/to/fig_chaos_sweep
Exits non-zero if any case is accepted or fails differently.
"""

import os
import subprocess
import sys

SMALL_WORLD = ["--days", "1", "--pairs", "20", "--dests", "4",
               "--probes", "60", "--public-rate", "20"]
ENV_SPECS = ("RRR_FAULT_PLAN", "RRR_IO_FAULT_PLAN")


def argv(binary, *bad):
    # A flag resolves to its first occurrence, so the bad setting goes
    # ahead of the small-world defaults (and a flag left without a value
    # is followed by the next flag).
    return [binary, *bad, *SMALL_WORLD]


def cases(fig11, serving, fault_sweep, chaos_sweep):
    """(label, argv, extra environment, setting named on stderr)."""
    return [
        ("retired flag", argv(fig11, "--pipeline", "0"), {}, "--pipeline"),
        ("misspelled flag", argv(fig11, "--pairz", "30"), {}, "--pairz"),
        ("retired fault field flag", argv(fig11, "--fault-drop", "0.5"), {},
         "--fault-drop"),
        ("fault plan flag", argv(fig11, "--fault-plan", "nonsense"), {},
         "--fault-plan"),
        ("fault plan nan rate", argv(fig11, "--fault-plan", "drop=nan"), {},
         "--fault-plan"),
        ("io fault plan flag", argv(fig11, "--io-fault-plan", "nonsense"),
         {}, "--io-fault-plan"),
        ("io fault plan nan rate",
         argv(fig11, "--io-fault-plan", "torn=nan"), {}, "--io-fault-plan"),
        ("io retry flag", argv(fig11, "--io-retry", "attempts=x"), {},
         "--io-retry"),
        ("trailing junk", argv(fig11, "--pairs", "30x"), {}, "--pairs"),
        ("number without value", argv(fig11, "--seed"), {}, "--seed"),
        ("string without value", argv(fig11, "--checkpoint-dir"), {},
         "--checkpoint-dir"),
        ("fault plan environment", argv(fig11),
         {"RRR_FAULT_PLAN": "nonsense"}, "RRR_FAULT_PLAN"),
        ("io fault plan environment", argv(fig11),
         {"RRR_IO_FAULT_PLAN": "nonsense"}, "RRR_IO_FAULT_PLAN"),
        ("grid without x",
         argv(serving, "--grid", "2y2", "--clients-list", "0"), {}, "--grid"),
        ("grid with three axes",
         argv(serving, "--grid", "2x2x1", "--clients-list", "0"), {},
         "--grid"),
        ("nan intensity", argv(fault_sweep, "--intensities", "nan"), {},
         "--intensities"),
        ("fault plan on the fault sweep",
         argv(fault_sweep, "--fault-plan", "drop=0.1"), {}, "--fault-plan"),
        ("checkpoint dir on the chaos sweep",
         argv(chaos_sweep, "--checkpoint-dir", "x"), {}, "--checkpoint-dir"),
        ("checkpoint cadence on the chaos sweep",
         argv(chaos_sweep, "--checkpoint-every", "2"), {},
         "--checkpoint-every"),
        ("resume on the chaos sweep", argv(chaos_sweep, "--resume", "x"), {},
         "--resume"),
        ("resume window on the chaos sweep",
         argv(chaos_sweep, "--resume-window", "3"), {}, "--resume-window"),
        ("supervise on the chaos sweep", argv(chaos_sweep, "--supervise"), {},
         "--supervise"),
    ]


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    base_env = {k: v for k, v in os.environ.items() if k not in ENV_SPECS}
    failures = 0
    for label, command, extra_env, setting in cases(*sys.argv[1:]):
        try:
            proc = subprocess.run(command, env={**base_env, **extra_env},
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            print(f"FAIL {label}: still running after 120 s")
            failures += 1
            continue
        if proc.returncode != 2 or setting not in proc.stderr:
            print(f"FAIL {label}: exit {proc.returncode}, stderr "
                  f"{proc.stderr.strip()!r} (want exit 2 naming {setting})")
            failures += 1
        else:
            print(f"ok   {label}: {proc.stderr.strip()}")
    if failures:
        sys.exit(f"{failures} misconfiguration(s) not rejected")


if __name__ == "__main__":
    main()
