#!/usr/bin/env python3
"""Examples smoke test.

Runs each example for one simulated day, which must exit 0, then with one
bad positional argument at a time: a word where a number goes, a number
below its floor, and an argument too many. Every bad call must exit with
status exactly 2 and name the argument on stderr, the bench harnesses'
contract, instead of running on a fallback.

Usage: check_examples.py QUICKSTART CORPUS_MAINTENANCE ARCHIVAL_REUSE
Each binary is known by its file name. Exits non-zero if a run fails, or a
bad call is accepted or fails differently.
"""

import os
import subprocess
import sys

EXAMPLES = ("quickstart", "corpus_maintenance", "archival_reuse")


def cases(bins):
    """(label, argv, expected status, text stderr must contain)."""
    quick = bins["quickstart"]
    maint = bins["corpus_maintenance"]
    archive = bins["archival_reuse"]
    return [
        ("quickstart, one day", [quick, "1"], 0, ""),
        ("corpus_maintenance, one day", [maint, "1", "5"], 0, ""),
        ("archival_reuse, one day", [archive, "1"], 0, ""),
        ("quickstart word days", [quick, "abc"], 2, "days"),
        ("quickstart zero days", [quick, "0"], 2, "days"),
        ("quickstart extra argument", [quick, "1", "2"], 2, "'2'"),
        ("corpus_maintenance word budget", [maint, "1", "xyz"], 2,
         "budget-per-day"),
        ("corpus_maintenance negative budget", [maint, "1", "-1"], 2,
         "budget-per-day"),
        ("corpus_maintenance trailing junk", [maint, "3x"], 2, "days"),
        ("corpus_maintenance extra argument", [maint, "1", "2", "3"], 2,
         "'3'"),
        ("archival_reuse word days", [archive, "x"], 2, "days"),
        ("archival_reuse zero days", [archive, "0"], 2, "days"),
        ("archival_reuse extra argument", [archive, "1", "2"], 2, "'2'"),
    ]


def main():
    bins = {os.path.basename(path): path for path in sys.argv[1:]}
    missing = [name for name in EXAMPLES if name not in bins]
    if missing or len(bins) != len(sys.argv) - 1:
        sys.exit(f"missing example(s) {missing}\n{__doc__}")
    failures = 0
    for label, args, status, named in cases(bins):
        run = subprocess.run(args, capture_output=True, text=True,
                             timeout=300)
        ok = run.returncode == status and named in run.stderr
        print(f"{'ok  ' if ok else 'FAIL'} {label}: exit {run.returncode}")
        if not ok:
            failures += 1
            print(f"  expected exit {status} naming {named!r}; stderr:\n"
                  f"{run.stderr}", end="")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
