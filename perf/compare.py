#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perf/compare.py PARENT CHANGE

PARENT and CHANGE are each a report file written by `perf.exe --json OUT`
(one JSON line per run). Runs are paired in the order they appear, so the
two sets should be made in alternation: parent, change, change, parent, ...

For every end-to-end metric of BENCHMARK.json and every workload the verdict
is one of:

  better      the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  fewer than 10 pairs, or a run-to-run spread (interquartile
              range over median) wider than the bound, unless every run of
              the change reads better than every run of the parent
  same        otherwise

Exits 1 if any verdict is worse or unresolved, else 0.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10


def load_runs(path):
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [r for r in runs if not r.get("trace")]


def series(runs, workload, metric):
    return [
        r["metrics"][metric]["value"]
        for r in runs
        if r["workload"] == workload and metric in r["metrics"]
    ]


def verdict(parent, change, better, bound):
    """Returns (verdict, parent median, change median, parent spread)."""
    n = min(len(parent), len(change))
    if n == 0:
        return "unresolved", float("nan"), float("nan"), float("nan")
    med_p, med_c = statistics.median(parent), statistics.median(change)
    if n < 2:
        return "unresolved", med_p, med_c, float("nan")
    q_p, q_c = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    iqr_p = q_p[2] - q_p[0]
    spread = max(iqr_p / abs(med_p), (q_c[2] - q_c[0]) / abs(med_c))
    sign = 1 if better == "lower" else -1  # positive = the change is worse
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    worse_by = sign * (med_c - med_p) / abs(med_p)
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if n < MIN_PAIRS:
        v = "unresolved"
    elif wins >= 0.9 * n and sign * (med_c - med_p) < 0 and abs(med_c - med_p) > iqr_p:
        v = "better"
    elif spread > bound and not every_run_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "same"
    return v, med_p, med_c, spread


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':9s} {'metric':15s} {'pairs':>5s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    failed = False
    for wl in workloads:
        for m in bench["end_to_end"]:
            p, c = series(parent, wl, m["name"]), series(change, wl, m["name"])
            v, med_p, med_c, spread = verdict(p, c, m["better"], m["bound"])
            failed |= v in ("worse", "unresolved")
            delta = (med_c - med_p) / abs(med_p) if med_p else float("nan")
            print(f"{wl:9s} {m['name']:15s} {min(len(p), len(c)):5d} {med_p:12.6g} "
                  f"{med_c:12.6g} {delta:+8.2%} {spread:7.2%} {m['bound']:6.0%}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
