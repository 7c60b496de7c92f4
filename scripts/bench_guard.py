#!/usr/bin/env python3
"""Wall-clock regression guard for the benchmark grid.

Compares a fresh `bench/main.exe --json` report against the committed
baseline (BENCH_*.json). Fails (exit 1) when the total wall clock exceeds
the baseline by more than the tolerance (default 15%), and prints a
per-experiment row diff so the offending cell is visible at a glance.

It is also the identity gate: simulated output is deterministic, so every
row the two reports share must carry identical simulated output -- every
sim_s value (keys naming host-side quantities such as walls excepted) and
every net_messages count. Any difference fails the guard (exit 1)
regardless of the wall verdict, and is listed.

When the current report contains `scaling` rows (bench/main.exe scaling),
a directory-memory guard also runs: for the sparsely-shared benchmarks the
words-per-region slope across machine sizes must stay far below one word
per processor — the compact two-mode directory's whole point. A slope at
or above SCALING_SLOPE_LIMIT means the representation has regressed to
O(nprocs) state per region, and the guard fails. Barnes-Hut is exempt:
every node genuinely caches every body, so its per-region state is
population-proportional by construction.

When the current report contains `critpath_overhead` rows (bench/main.exe
critpath), a recording-overhead guard also runs: the recorder-on EM3D wall
must stay within CRITPATH_TOLERANCE of the recorder-off wall plus an
absolute floor. The floor exists because the benched run is sub-second:
the recorder's fixed per-event cost (~140 ns) is a large *fraction* of a
0.2 s run but a small absolute cost, and machine wall noise on runs that
short is itself several percent. The guard therefore bounds the absolute
regression, which is what CI can measure honestly, rather than pretending
a percentage of a sub-second wall is meaningful.

When the current report contains `serving` rows (bench/main.exe serving),
an adaptation guard also runs: every row must have computed the exact
sequential reference (ok == 1), the adaptive row must actually have
switched protocols at least once, and — the experiment's headline claim —
the adaptive row's physical message count must not exceed the best fixed
protocol's. The claim is scale-sensitive (update-protocol push fan-out
grows with the sharer population), so CI runs this guard on the --small
smoke, the configuration the claim is made for.

Usage:
    bench_guard.py CURRENT.json BASELINE.json [--tolerance 0.15]
                   [--report OUT.json]
    bench_guard.py SCALING.json --scaling-only [--report OUT.json]
    bench_guard.py CRITPATH.json --critpath-only [--report OUT.json]
    bench_guard.py SERVING.json --serving-only [--report OUT.json]
    bench_guard.py COMBINATOR.json --combinator-only [--report OUT.json]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def rows_by_key(report):
    return {
        (r.get("experiment", "?"), r.get("name", "?")): r
        for r in report.get("rows", [])
    }


# Benchmarks whose regions are sparsely shared, where directory memory per
# region must not scale with the machine. The old bool-array + eager copy
# records cost >= 2 words per processor per region; the compact form's
# worst residual slope is the two mapped/sharer bitsets at 2/62.
SCALING_SPARSE_BENCHES = {"EM3D", "BSC"}
SCALING_SLOPE_LIMIT = 0.25  # words per region per added processor


def scaling_guard(report):
    """Check words-per-region growth across machine sizes; return failures."""
    series = {}
    for r in report.get("rows", []):
        if r.get("experiment") != "scaling":
            continue
        name = r.get("name", "")          # e.g. "EM3D-inval@64"
        bench_proto = name.rsplit("@", 1)[0]
        sims = r.get("sim_s") or {}
        nprocs = sims.get("nprocs")
        wpr = sims.get("words_per_region")
        if nprocs and wpr is not None:
            series.setdefault(bench_proto, []).append((int(nprocs), wpr))

    checks = []
    for bench_proto, points in sorted(series.items()):
        bench = bench_proto.split("-", 1)[0]
        if bench not in SCALING_SPARSE_BENCHES or len(points) < 2:
            continue
        points.sort()
        (n0, w0), (n1, w1) = points[0], points[-1]
        slope = (w1 - w0) / (n1 - n0)
        checks.append({
            "series": bench_proto,
            "nprocs": [n0, n1],
            "words_per_region": [w0, w1],
            "slope": slope,
            "ok": slope < SCALING_SLOPE_LIMIT,
        })
    return checks


# Critical-path recorder overhead bound: on-wall may exceed off-wall by
# 5% plus an absolute floor. See the module docstring for why a pure
# percentage is not honest at sub-second run lengths.
CRITPATH_TOLERANCE = 0.05
CRITPATH_FLOOR_S = 0.15


def critpath_guard(report):
    """Bound recorder-on wall against recorder-off wall; return checks."""
    walls = {}
    for r in report.get("rows", []):
        if r.get("experiment") == "critpath_overhead":
            walls[r.get("name", "")] = r.get("wall_s")

    checks = []
    off, on = walls.get("em3d-off"), walls.get("em3d-on")
    if off is not None and on is not None:
        limit = off * (1.0 + CRITPATH_TOLERANCE) + CRITPATH_FLOOR_S
        checks.append({
            "series": "critpath-recording",
            "off_wall_s": off,
            "on_wall_s": on,
            "limit_wall_s": limit,
            "ok": on <= limit,
        })
    return checks


# The adaptive row may not send more messages than the best fixed
# protocol: adaptation's whole pitch is that per-space re-picking matches
# or beats any single static choice.
SERVING_RATIO_LIMIT = 1.0
SERVING_FIXED = {"SC", "DYN_UPDATE", "MIGRATORY"}


def serving_guard(report):
    """Check the adaptive-serving rows' correctness and headline ratio."""
    rows = [r for r in report.get("rows", [])
            if r.get("experiment") == "serving"]
    if not rows:
        return []

    checks = []
    fixed_msgs = {}
    adaptive = None
    for r in rows:
        name = r.get("name", "?")
        sims = r.get("sim_s") or {}
        msgs = (r.get("net_messages") or {}).get("total")
        checks.append({
            "series": f"serving-{name}-correct",
            "ok": sims.get("ok") == 1,
        })
        if name in SERVING_FIXED and msgs is not None:
            fixed_msgs[name] = msgs
        if name == "adaptive":
            adaptive = (msgs, sims.get("switches"))

    if adaptive is not None and fixed_msgs:
        msgs, switches = adaptive
        checks.append({
            "series": "serving-adaptive-switched",
            "switches": switches,
            "ok": bool(switches and switches > 0),
        })
        best_name = min(fixed_msgs, key=fixed_msgs.get)
        best = fixed_msgs[best_name]
        ratio = (msgs / best) if (msgs is not None and best > 0) else None
        checks.append({
            "series": "serving-adaptive-vs-best-fixed",
            "best_fixed": best_name,
            "best_fixed_messages": best,
            "adaptive_messages": msgs,
            "ratio": ratio,
            "ok": ratio is not None and ratio <= SERVING_RATIO_LIMIT,
        })
    else:
        checks.append({"series": "serving-rows-complete", "ok": False})
    return checks


# Combinator-compiler guard: every identity row must be bit-identical
# (hand-written vs DSL-built protocol), and compiled-dispatch wall time may
# exceed hand-written dispatch by 5% plus an absolute floor — the same
# noise-honest shape as the critpath recorder bound, because these are
# sub-second EM3D runs.
COMBINATOR_TOLERANCE = 0.05
COMBINATOR_FLOOR_S = 0.15


def combinator_guard(report):
    """Check combinator identity rows and the DSL dispatch-wall bound."""
    rows = [r for r in report.get("rows", [])
            if r.get("experiment") == "combinator"]
    if not rows:
        return []

    checks = []
    walls = {}
    for r in rows:
        name = r.get("name", "?")
        sims = r.get("sim_s") or {}
        if "identical" in sims:
            checks.append({
                "series": f"combinator-identity-{name}",
                "hand_s": sims.get("hand"),
                "dsl_s": sims.get("dsl"),
                "ok": sims.get("identical") == 1,
            })
        if name in ("dispatch-em3d-hand", "dispatch-em3d-dsl"):
            walls[name] = r.get("wall_s")

    hand, dsl = walls.get("dispatch-em3d-hand"), walls.get("dispatch-em3d-dsl")
    if hand is not None and dsl is not None:
        limit = hand * (1.0 + COMBINATOR_TOLERANCE) + COMBINATOR_FLOOR_S
        checks.append({
            "series": "combinator-dispatch-wall",
            "hand_wall_s": hand,
            "dsl_wall_s": dsl,
            "limit_wall_s": limit,
            "ok": dsl <= limit,
        })
    else:
        checks.append({"series": "combinator-dispatch-rows", "ok": False})
    return checks


# sim_s keys that are host-wall-derived rather than simulated output, and
# therefore exempt from the identity comparison.
WALL_KEYS = ("wall", "speedup", "jobs")


def identity_guard(cur, base):
    """Every row shared with the baseline must have identical simulated
    output; return one check per shared row."""
    cur_rows = rows_by_key(cur)
    base_rows = rows_by_key(base)
    checks = []
    for key in sorted(set(cur_rows) & set(base_rows)):
        exp, name = key
        c, b = cur_rows[key], base_rows[key]
        diffs = []
        for sim_key, bv in (b.get("sim_s") or {}).items():
            if any(w in sim_key for w in WALL_KEYS):
                continue
            cv = (c.get("sim_s") or {}).get(sim_key)
            if cv != bv:
                diffs.append(f"sim_s[{sim_key}] {bv!r} -> {cv!r}")
        for msg_key, bv in (b.get("net_messages") or {}).items():
            cv = (c.get("net_messages") or {}).get(msg_key)
            if cv != bv:
                diffs.append(f"net_messages[{msg_key}] {bv!r} -> {cv!r}")
        checks.append({
            "series": f"identity {exp}/{name}",
            "diffs": diffs,
            "ok": not diffs,
        })
    return checks


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional wall-clock regression")
    ap.add_argument("--scaling-only", action="store_true",
                    help="skip the wall-clock comparison; only run the "
                         "directory-memory guard on CURRENT's scaling rows")
    ap.add_argument("--critpath-only", action="store_true",
                    help="skip the wall-clock comparison; only run the "
                         "recorder-overhead guard on CURRENT's "
                         "critpath_overhead rows")
    ap.add_argument("--serving-only", action="store_true",
                    help="skip the wall-clock comparison; only run the "
                         "adaptation guard on CURRENT's serving rows")
    ap.add_argument("--combinator-only", action="store_true",
                    help="skip the wall-clock comparison; only run the "
                         "combinator identity + dispatch-overhead guard on "
                         "CURRENT's combinator rows")
    ap.add_argument("--report", help="write a JSON verdict artifact here")
    args = ap.parse_args()

    cur = load(args.current)

    scaling_checks = scaling_guard(cur)
    scaling_ok = all(c["ok"] for c in scaling_checks)
    for c in scaling_checks:
        print(f"bench_guard: scaling {c['series']}: "
              f"{c['words_per_region'][0]:.2f} -> "
              f"{c['words_per_region'][1]:.2f} words/region over "
              f"{c['nprocs'][0]} -> {c['nprocs'][1]} procs "
              f"(slope {c['slope']:.4f}, limit {SCALING_SLOPE_LIMIT}, "
              f"{'OK' if c['ok'] else 'O(nprocs) REGRESSION'})")

    critpath_checks = critpath_guard(cur)
    critpath_ok = all(c["ok"] for c in critpath_checks)
    for c in critpath_checks:
        print(f"bench_guard: critpath recording: off {c['off_wall_s']:.3f}s, "
              f"on {c['on_wall_s']:.3f}s "
              f"(limit {c['limit_wall_s']:.3f}s = off x "
              f"{1.0 + CRITPATH_TOLERANCE:.2f} + {CRITPATH_FLOOR_S}s floor, "
              f"{'OK' if c['ok'] else 'OVERHEAD REGRESSION'})")

    serving_checks = serving_guard(cur)
    serving_ok = all(c["ok"] for c in serving_checks)
    for c in serving_checks:
        if c["series"] == "serving-adaptive-vs-best-fixed":
            ratio = c["ratio"]
            print(f"bench_guard: serving adaptive "
                  f"{c['adaptive_messages']:.0f} msgs vs best fixed "
                  f"{c['best_fixed']} {c['best_fixed_messages']:.0f} "
                  f"(ratio {ratio:.3f}, limit {SERVING_RATIO_LIMIT}, "
                  f"{'OK' if c['ok'] else 'ADAPTATION REGRESSION'})"
                  if ratio is not None else
                  "bench_guard: serving ratio unavailable (FAIL)")
        elif not c["ok"]:
            print(f"bench_guard: serving check {c['series']}: FAIL")

    combinator_checks = combinator_guard(cur)
    combinator_ok = all(c["ok"] for c in combinator_checks)
    for c in combinator_checks:
        series = c["series"]
        if series.startswith("combinator-identity"):
            print(f"bench_guard: {series}: "
                  f"{'OK' if c['ok'] else 'DIVERGED FROM HAND-WRITTEN'}")
        elif series == "combinator-dispatch-wall":
            print(f"bench_guard: combinator dispatch: hand "
                  f"{c['hand_wall_s']:.3f}s, dsl {c['dsl_wall_s']:.3f}s "
                  f"(limit {c['limit_wall_s']:.3f}s = hand x "
                  f"{1.0 + COMBINATOR_TOLERANCE:.2f} + "
                  f"{COMBINATOR_FLOOR_S}s floor, "
                  f"{'OK' if c['ok'] else 'DISPATCH REGRESSION'})")
        elif not c["ok"]:
            print(f"bench_guard: combinator check {series}: FAIL")

    if args.scaling_only:
        if not scaling_checks:
            sys.exit("bench_guard: --scaling-only but no scaling rows "
                     "in current report")
        if args.report:
            with open(args.report, "w") as f:
                json.dump({"ok": scaling_ok, "scaling": scaling_checks},
                          f, indent=2)
        sys.exit(0 if scaling_ok else 1)

    if args.critpath_only:
        if not critpath_checks:
            sys.exit("bench_guard: --critpath-only but no critpath_overhead "
                     "rows in current report")
        if args.report:
            with open(args.report, "w") as f:
                json.dump({"ok": critpath_ok, "critpath": critpath_checks},
                          f, indent=2)
        sys.exit(0 if critpath_ok else 1)

    if args.serving_only:
        if not serving_checks:
            sys.exit("bench_guard: --serving-only but no serving rows "
                     "in current report")
        if args.report:
            with open(args.report, "w") as f:
                json.dump({"ok": serving_ok, "serving": serving_checks},
                          f, indent=2)
        sys.exit(0 if serving_ok else 1)

    if args.combinator_only:
        if not combinator_checks:
            sys.exit("bench_guard: --combinator-only but no combinator "
                     "rows in current report")
        if args.report:
            with open(args.report, "w") as f:
                json.dump({"ok": combinator_ok,
                           "combinator": combinator_checks}, f, indent=2)
        sys.exit(0 if combinator_ok else 1)

    if args.baseline is None:
        ap.error("baseline report required unless --scaling-only")
    base = load(args.baseline)

    cur_total = cur.get("total_wall_s")
    base_total = base.get("total_wall_s")
    if cur_total is None or base_total is None:
        sys.exit("bench_guard: reports lack total_wall_s")

    limit = base_total * (1.0 + args.tolerance)
    ok = cur_total <= limit

    cur_rows = rows_by_key(cur)
    base_rows = rows_by_key(base)

    identity_checks = identity_guard(cur, base)
    identity_ok = all(c["ok"] for c in identity_checks)

    row_diffs = []
    for key in sorted(set(cur_rows) | set(base_rows)):
        c = cur_rows.get(key)
        b = base_rows.get(key)
        exp, name = key
        if c is None or b is None:
            row_diffs.append({
                "experiment": exp, "name": name,
                "status": "missing-in-current" if c is None else "new",
                "baseline_wall_s": b and b.get("wall_s"),
                "current_wall_s": c and c.get("wall_s"),
            })
            continue
        bw, cw = b.get("wall_s", 0.0), c.get("wall_s", 0.0)
        row_diffs.append({
            "experiment": exp, "name": name, "status": "compared",
            "baseline_wall_s": bw, "current_wall_s": cw,
            "ratio": (cw / bw) if bw > 0 else None,
        })

    verdict = {
        "ok": ok and identity_ok and scaling_ok and critpath_ok and serving_ok,
        "wall_ok": ok,
        "identity_ok": identity_ok,
        "identity": identity_checks,
        "scaling": scaling_checks,
        "critpath": critpath_checks,
        "serving": serving_checks,
        "tolerance": args.tolerance,
        "baseline_total_wall_s": base_total,
        "current_total_wall_s": cur_total,
        "limit_wall_s": limit,
        "rows": row_diffs,
    }
    if args.report:
        with open(args.report, "w") as f:
            json.dump(verdict, f, indent=2)

    print(f"bench_guard: total wall {cur_total:.3f}s vs baseline "
          f"{base_total:.3f}s (limit {limit:.3f}s, "
          f"{'OK' if ok else 'REGRESSION'})")
    n_bad = 0
    for c in identity_checks:
        if not c["ok"]:
            n_bad += 1
            print(f"bench_guard: {c['series']}: DIVERGED")
            for d in c["diffs"]:
                print(f"    {d}")
    print(f"bench_guard: identity: {len(identity_checks)} shared rows, "
          f"{n_bad} diverged ({'OK' if identity_ok else 'SIMULATED OUTPUT CHANGED'})")
    if not ok:
        print(f"  {'experiment/row':<40} {'base_s':>9} {'cur_s':>9} "
              f"{'ratio':>7}")
        for d in row_diffs:
            label = f"{d['experiment']}/{d['name']}"
            if d["status"] != "compared":
                print(f"  {label:<40} {d['status']}")
                continue
            ratio = d["ratio"]
            print(f"  {label:<40} {d['baseline_wall_s']:>9.3f} "
                  f"{d['current_wall_s']:>9.3f} "
                  f"{ratio:>7.2f}" if ratio is not None else
                  f"  {label:<40} (no baseline wall)")
        sys.exit(1)
    if not identity_ok or not scaling_ok or not critpath_ok or not serving_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
