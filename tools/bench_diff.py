#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json files against committed baselines.

Usage: bench_diff.py <baseline_dir> <current_dir> [--wall-tolerance X]

Structural checks are hard failures (exit 1): a baseline figure whose fresh
counterpart is missing, a record (op) that disappeared, or a tracked cycle
metric that vanished from a record. Every "*_cycles" metric gates exactly:
the simulated cycle counts are deterministic for a given compiler, so any
change, up or down, fails. A change that moves cycles on purpose refreshes
bench/baselines/ in the same commit and says so. "compile_wall_seconds"
(totals) gates too, but with the much looser --wall-tolerance multiplier
(default 1.5x) since CI machines are noisy; other wall-clock metrics
("*_seconds", "*_rate") are reported but never gate. The wall gate exists
so a compile-time optimization cannot silently rot: refresh the baselines
whenever compile time moves on purpose (in either direction).

Latency percentiles (totals keys containing "_p50", "_p99", or "_p999",
in seconds or milliseconds) are reported as deltas but never gate: they
are wall-clock and CI machines are noisy.

Serving-quality metrics gate as LOWER bounds: a totals key in
MIN_GATED_KEYS (bucketed effective hit rate, bucketed/exact hit-rate
ratio, and the shape-stream determinism/gates flags) may not drop below
--min-metric-slack (default 0.9) times its baseline. These are
deterministic for a seeded request stream, so a drop means the bucketing
or caching logic regressed, not that the machine was slow.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def index_records(doc):
    return {r.get("op", f"#{i}"): r for i, r in enumerate(doc.get("records", []))}


def cycle_keys(rec):
    return [k for k, v in rec.items() if k.endswith("_cycles") and isinstance(v, (int, float))]


WALL_KEY = "compile_wall_seconds"

# Totals keys that gate as lower bounds (higher = better, deterministic
# for a seeded stream): effective cache reuse and the shape-stream
# correctness/determinism flags.
MIN_GATED_KEYS = {"bucketed_hit_rate", "hit_rate_ratio", "determinism_ok",
                  "gates_ok"}


def is_percentile_key(key):
    return "_p50" in key or "_p99" in key or "_p999" in key


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--wall-tolerance", type=float, default=1.5,
                    help="max allowed compile_wall_seconds as a multiple "
                         "of baseline (noise allowance)")
    ap.add_argument("--min-metric-slack", type=float, default=0.9,
                    help="lower-bounded metrics (hit rates) may not drop "
                         "below this fraction of baseline")
    args = ap.parse_args()

    baselines = sorted(
        f for f in os.listdir(args.baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"no BENCH_*.json baselines in {args.baseline_dir}", file=sys.stderr)
        return 1

    failures = []

    def check_wall(name, label, bval, cval, gate):
        # Per-record wall times are fractions of a second and too noisy to
        # gate individually; only figure totals gate (gate=True).
        if not isinstance(bval, (int, float)) or bval <= 0:
            return
        if not isinstance(cval, (int, float)):
            failures.append(f"{name}: {label}.{WALL_KEY} vanished")
            return
        ratio = cval / bval
        marker = ""
        if gate and ratio > args.wall_tolerance:
            failures.append(
                f"{name}: {label}.{WALL_KEY} regressed {ratio:.2f}x "
                f"({bval:.3f}s -> {cval:.3f}s, tolerance "
                f"{args.wall_tolerance:.2f}x)")
            marker = "  <-- FAIL"
        if abs(ratio - 1.0) >= 0.05 or marker:
            print(f"{name} {label}.{WALL_KEY}: {bval:.3f}s -> {cval:.3f}s "
                  f"({ratio:.2f}x){marker}")

    for name in baselines:
        base = load(os.path.join(args.baseline_dir, name))
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.exists(cur_path):
            failures.append(f"{name}: missing from {args.current_dir}")
            continue
        cur = load(cur_path)
        base_recs, cur_recs = index_records(base), index_records(cur)
        for op, brec in base_recs.items():
            crec = cur_recs.get(op)
            if crec is None:
                failures.append(f"{name}: record '{op}' disappeared")
                continue
            for key in cycle_keys(brec):
                bval = brec[key]
                cval = crec.get(key)
                if not isinstance(cval, (int, float)):
                    failures.append(f"{name}: {op}.{key} vanished")
                    continue
                if cval != bval:
                    failures.append(
                        f"{name}: {op}.{key} changed {bval:.0f} -> "
                        f"{cval:.0f}")
                    print(f"{name} {op}.{key}: {bval:.0f} -> {cval:.0f}"
                          f"  <-- FAIL")
            if WALL_KEY in brec:
                check_wall(name, op, brec[WALL_KEY], crec.get(WALL_KEY),
                           gate=False)
        btotals, ctotals = base.get("totals", {}), cur.get("totals", {})
        if WALL_KEY in btotals:
            check_wall(name, "totals", btotals[WALL_KEY],
                       ctotals.get(WALL_KEY), gate=True)
        # Latency percentiles: informational deltas only.
        for key in sorted(btotals):
            if not is_percentile_key(key):
                continue
            bval, cval = btotals[key], ctotals.get(key)
            if not isinstance(bval, (int, float)) or bval <= 0:
                continue
            if not isinstance(cval, (int, float)):
                print(f"{name} totals.{key}: {bval:.4g} -> (missing)")
                continue
            ratio = cval / bval
            if abs(ratio - 1.0) >= 0.05:
                print(f"{name} totals.{key}: {bval:.4g} -> {cval:.4g} "
                      f"({ratio:.2f}x) [informational]")
        # Lower-bounded serving metrics: a hit-rate (or determinism flag)
        # that drops below slack * baseline is a regression.
        for key in sorted(btotals):
            if key not in MIN_GATED_KEYS:
                continue
            bval, cval = btotals[key], ctotals.get(key)
            if not isinstance(bval, (int, float)) or bval <= 0:
                continue
            if not isinstance(cval, (int, float)):
                failures.append(f"{name}: totals.{key} vanished")
                continue
            floor = bval * args.min_metric_slack
            marker = ""
            if cval < floor:
                failures.append(
                    f"{name}: totals.{key} dropped {bval:.4g} -> {cval:.4g} "
                    f"(floor {floor:.4g})")
                marker = "  <-- FAIL"
            if abs(cval / bval - 1.0) >= 0.02 or marker:
                print(f"{name} totals.{key}: {bval:.4g} -> {cval:.4g}"
                      f"{marker}")

    if failures:
        print(f"\nbench_diff: {len(failures)} failure(s)", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench_diff: {len(baselines)} figure(s) match baseline cycles "
          f"(wall tolerance {args.wall_tolerance:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
