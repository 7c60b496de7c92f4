#!/usr/bin/env python3
"""Wall-clock gate: does a change make the default bench grid slower than
its merge-base, measured on the same host?

    python3 bench/wall_gate.py BASE_EXE CHANGE_EXE

BASE_EXE and CHANGE_EXE are two builds of bench/main.exe (the merge-base
and the change). Each runs the default grid with `--jobs 1 --json` 3
times, alternating base and change so that a load swing on the host hits
both sides alike. The gate reads `total_wall_s` from every report and
fails (exit 1) if the change's median exceeds the base's median by more
than 15%. Exit 2 on bad usage or when a run writes no report.

Simulated output is not judged here: `bench/main.exe --baseline` checks it.
A run whose own checks fail (exit 1) still counts for its wall.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RUNS = 3
BOUND = 0.15


def fail(msg):
    print(f"wall_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def total_wall(exe, report):
    if os.path.exists(report):
        os.remove(report)
    try:
        proc = subprocess.run(
            [exe, "--jobs", "1", "--json", report],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    except OSError as e:
        fail(f"cannot run {exe}: {e}")
    if proc.returncode not in (0, 1):
        fail(f"{exe} exited {proc.returncode}")
    try:
        with open(report) as f:
            return json.load(f)["total_wall_s"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"no report from {exe}: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    a = ap.parse_args()
    walls = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        for i in range(RUNS):
            for side in ("base", "change"):
                w = total_wall(getattr(a, side), report)
                walls[side].append(w)
                print(f"run {i + 1} {side}: {w:.3f} s", flush=True)
    base = statistics.median(walls["base"])
    change = statistics.median(walls["change"])
    limit = base * (1 + BOUND)
    ok = change <= limit
    print(
        f"wall gate: {'ok' if ok else 'FAIL'} (change median {change:.3f} s, "
        f"base median {base:.3f} s, limit {limit:.3f} s = base x {1 + BOUND:.2f})"
    )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
