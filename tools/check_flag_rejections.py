#!/usr/bin/env python3
"""Bench misconfiguration smoke test.

Runs the bench harnesses with one bad setting at a time: a flag name the
harness does not declare (misspelled, retired, or one the harness would not
honor, such as the durable-run flags anywhere but fig11), a number with
trailing junk or that is not finite, a flag missing its value, an
unparseable fault-plan or retry spec (as a flag or through the
RRR_FAULT_PLAN / RRR_IO_FAULT_PLAN environment variables), and a fig11 flag
combination nothing would read. Every run must exit with status exactly 2 and name the offending setting on
stderr instead of running on a fallback. The world flags are small, so a
harness that wrongly accepts a case finishes quickly and fails the check.

Usage: check_flag_rejections.py HARNESS...
Takes every harness binary (fig01_path_changes through
table2_precision_coverage); each is known by its file name. Exits non-zero
if any case is accepted or fails differently.
"""

import os
import subprocess
import sys

SMALL_WORLD = ["--days", "1", "--pairs", "20", "--dests", "4",
               "--probes", "60", "--public-rate", "20"]
ENV_SPECS = ("RRR_FAULT_PLAN", "RRR_IO_FAULT_PLAN")
HARNESSES = (
    "fig01_path_changes", "fig06_precision_coverage_time", "fig07_live_eval",
    "fig08_budget_sweep", "fig09_10_load_balancing", "fig11_archival_reuse",
    "fig12_geolocation", "fig13_community_pruning", "fig14_15_border_overlap",
    "fig16_iplane", "fig_fault_sweep", "table2_precision_coverage")
# The harnesses that exit 2 on --checkpoint-dir: every one but fig11, which
# honors it.
NO_CHECKPOINT = tuple(name for name in HARNESSES
                      if name != "fig11_archival_reuse")
DURABLE_FLAGS = (("--checkpoint-dir", "x"), ("--checkpoint-every", "2"),
                 ("--resume", "x"), ("--resume-window", "3"),
                 ("--supervise",), ("--io-fault-plan", "torn=0.1"),
                 ("--io-retry", "attempts=2"))


def argv(binary, *bad):
    # A flag resolves to its first occurrence, so the bad setting goes
    # ahead of the small-world defaults (and a flag left without a value
    # is followed by the next flag).
    return [binary, *bad, *SMALL_WORLD]


def cases(bins):
    """(label, argv, extra environment, setting named on stderr)."""
    fig11 = bins["fig11_archival_reuse"]
    fig07 = bins["fig07_live_eval"]
    fault_sweep = bins["fig_fault_sweep"]
    out = [
        ("retired flag", argv(fig11, "--pipeline", "0"), {}, "--pipeline"),
        ("misspelled flag", argv(fig11, "--pairz", "30"), {}, "--pairz"),
        ("retired fault field flag", argv(fig11, "--fault-drop", "0.5"), {},
         "--fault-drop"),
        ("retired watchdog on fig11", argv(fig11, "--watchdog"), {},
         "--watchdog"),
        ("retired obs port on fig11", argv(fig11, "--serve-obs", "0"), {},
         "--serve-obs"),
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
        # fig11 flag combinations that nothing would read.
        ("supervise without a checkpoint dir", argv(fig11, "--supervise"),
         {}, "--supervise"),
        ("checkpoint cadence without a checkpoint dir",
         argv(fig11, "--checkpoint-every", "2"), {}, "--checkpoint-every"),
        ("resume window without resume",
         argv(fig11, "--resume-window", "3"), {}, "--resume-window"),
        ("io fault plan without store IO",
         argv(fig11, "--io-fault-plan", "torn=0.1"), {}, "--io-fault-plan"),
        ("io fault plan environment without store IO", argv(fig11),
         {"RRR_IO_FAULT_PLAN": "torn=0.1"}, "RRR_IO_FAULT_PLAN"),
        ("io retry without store IO",
         argv(fig11, "--io-retry", "attempts=2"), {}, "--io-retry"),
        ("supervise with the live endpoint",
         argv(fig11, "--checkpoint-dir", "x", "--supervise", "--serve", "0"),
         {}, "--supervise"),
        ("linger without the live endpoint",
         argv(fig11, "--serve-linger", "1"), {}, "--serve-linger"),
        ("nan intensity", argv(fault_sweep, "--intensities", "nan"), {},
         "--intensities"),
        ("fault plan on the fault sweep",
         argv(fault_sweep, "--fault-plan", "drop=0.1"), {}, "--fault-plan"),
    ]
    for name in NO_CHECKPOINT:
        out.append((f"checkpoint dir on {name}",
                    argv(bins[name], "--checkpoint-dir", "x"), {},
                    "--checkpoint-dir"))
    for flag in DURABLE_FLAGS:
        out.append((f"{flag[0]} on fig07", argv(fig07, *flag), {}, flag[0]))
    return out


def main():
    bins = {os.path.basename(path): path for path in sys.argv[1:]}
    missing = [name for name in HARNESSES if name not in bins]
    if missing or len(bins) != len(sys.argv) - 1:
        sys.exit(f"missing harness(es) {missing}\n{__doc__}")
    base_env = {k: v for k, v in os.environ.items() if k not in ENV_SPECS}
    failures = 0
    for label, command, extra_env, setting in cases(bins):
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
