#!/usr/bin/env python3
"""Declared outputs are written: every harness that takes --stats-json and
--trace-out runs once on a small world with both, and must exit 0 having
written both files. The stats file must be an rrr-stats-v1 envelope holding
at least one run; the trace must pass tools/validate_trace.py.

Usage: check_declared_outputs.py HARNESS...
Takes the harness binaries that declare the two output flags; each is known
by its file name and run with the extra arguments listed below, which keep
it short. Exits non-zero if any harness fails, skips a file, or writes one
that does not validate.
"""

import json
import os
import subprocess
import sys
import tempfile

SMALL_WORLD = ["--days", "1", "--pairs", "20", "--dests", "4",
               "--probes", "60", "--public-rate", "20"]
# Per-harness arguments on top of the small world.
EXTRA = {
    "fig01_path_changes": [],
    "fig06_precision_coverage_time": [],
    "fig07_live_eval": ["--budget", "2"],
    "fig08_budget_sweep": [],
    "fig09_10_load_balancing": [],
    "fig11_archival_reuse": [],
    "fig13_community_pruning": [],
    "fig14_15_border_overlap": [],
    "fig16_iplane": [],
    "fig_fault_sweep": ["--kinds", "blackout", "--intensities", "0"],
    "table2_precision_coverage": [],
}
VALIDATE_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "validate_trace.py")


def check(name, binary, tmp_dir):
    """Returns a failure message, or None when both files check out."""
    stats_path = os.path.join(tmp_dir, f"{name}.stats.json")
    trace_path = os.path.join(tmp_dir, f"{name}.trace.json")
    command = [binary, *SMALL_WORLD, *EXTRA[name],
               "--stats-json", stats_path, "--trace-out", trace_path]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=300)
    except subprocess.TimeoutExpired:
        return "still running after 300 s"
    if proc.returncode != 0:
        return f"exit {proc.returncode}:\n{proc.stdout}"
    try:
        with open(stats_path, encoding="utf-8") as fh:
            envelope = json.load(fh)
    except (OSError, json.JSONDecodeError) as error:
        return f"--stats-json: {error}"
    if envelope.get("schema") != "rrr-stats-v1":
        return f"--stats-json: schema {envelope.get('schema')!r}"
    runs = envelope.get("runs")
    if not isinstance(runs, list) or not runs:
        return "--stats-json: no runs"
    trace = subprocess.run([sys.executable, VALIDATE_TRACE, trace_path],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
    if trace.returncode != 0:
        return f"--trace-out: {trace.stdout.strip()}"
    return None


def main():
    bins = {os.path.basename(path): path for path in sys.argv[1:]}
    missing = [name for name in EXTRA if name not in bins]
    unknown = [name for name in bins if name not in EXTRA]
    if missing or unknown:
        sys.exit(f"missing {missing}, unknown {unknown}\n{__doc__}")
    failures = 0
    with tempfile.TemporaryDirectory(prefix="rrr-outputs-") as tmp_dir:
        for name in EXTRA:
            problem = check(name, bins[name], tmp_dir)
            if problem is None:
                print(f"ok   {name}")
            else:
                print(f"FAIL {name}: {problem}")
                failures += 1
    if failures:
        sys.exit(f"{failures} harness(es) did not write their outputs")


if __name__ == "__main__":
    main()
