#!/usr/bin/env python3
"""Diff bench JSON emissions against committed baselines.

Every bench binary writes BENCH_<name>.json (see bench/bench_util.h): one
record per sweep point with simulated events, wall seconds, events/sec and
ns/event. This script compares a directory of fresh emissions against
bench/baselines/ and fails when a bench regresses past the threshold.

Per-label deltas are reported for every common label; the pass/fail gate
is the geometric mean of the ns/event ratios across a bench's common
labels, which damps single-point scheduler noise on shared CI runners
while still catching a real slowdown in the hot paths. Because baselines
are recorded on whatever machine last refreshed them, every per-bench
geomean is first normalized by the median label ratio across ALL compared
benches: a uniformly faster or slower runner shifts every label alike and
cancels out, while a regression localized to one bench's hot path stands
out against the fleet. (Pass --absolute to gate on raw ratios instead,
e.g. when current and baseline come from the same machine.) Labels new in
the current run (no baseline yet) are listed and skipped; labels that
disappeared fail the run — a silently dropped point is how a perf gate
rots. A whole BENCH_*.json emission with no committed baseline also fails:
a new bench must land together with its baseline or it rides unguarded.

Usage:
  tools/bench_diff.py --current build-release/bench --baseline bench/baselines
  tools/bench_diff.py --current . --threshold 0.20 --only contention

Exit codes: 0 ok, 1 regression (or dropped label), 2 usage/IO error.
Stdlib only by design: the perf lane must not need a pip install.
"""

import argparse
import glob
import json
import math
import os
import sys


def load_points(path):
    """label -> record dict for one BENCH_*.json file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return doc.get("bench", "?"), {p["label"]: p for p in doc.get("points", [])}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def diff_bench(name, base, cur):
    """Compares one bench's point maps. Returns (ok, ratios, lines): `ok`
    covers the structural checks only (dropped labels, event drift); the
    timing verdict is taken later, once the cross-bench machine factor is
    known."""
    lines = []
    dropped = sorted(set(base) - set(cur))
    added = sorted(set(cur) - set(base))
    common = sorted(set(base) & set(cur))
    ok = True

    for label in dropped:
        lines.append(f"  FAIL {label}: present in baseline, missing from "
                     f"current run")
        ok = False
    for label in added:
        lines.append(f"  new  {label}: no baseline yet (skipped)")

    ratios = []
    for label in common:
        b, c = base[label], cur[label]
        if b.get("events") != c.get("events"):
            # Same scenario + seed must simulate the same event count; a
            # drift here is a determinism bug, not a perf delta.
            lines.append(f"  FAIL {label}: simulated events drifted "
                         f"{b.get('events')} -> {c.get('events')}")
            ok = False
            continue
        bn, cn = b.get("ns_per_event", 0), c.get("ns_per_event", 0)
        if bn <= 0 or cn <= 0:
            lines.append(f"  skip {label}: unusable timing (ns/event "
                         f"{bn} -> {cn})")
            continue
        ratio = cn / bn
        ratios.append(ratio)
        lines.append(f"  {'slow' if ratio > 1 else ' ok '} {label}: "
                     f"{bn:.1f} -> {cn:.1f} ns/event "
                     f"({(ratio - 1) * 100:+.1f}%, "
                     f"{c.get('events_per_sec', 0):,.0f} ev/s)")
    return ok, ratios, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="directory holding freshly emitted BENCH_*.json")
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory of committed baselines (default: "
                         "bench/baselines)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed geomean ns/event regression "
                         "(default: 0.15 = 15%%)")
    ap.add_argument("--only", action="append", default=[],
                    help="restrict to bench name(s), e.g. --only contention")
    ap.add_argument("--absolute", action="store_true",
                    help="gate on raw ns/event ratios (skip machine-factor "
                         "normalization; use when current and baseline come "
                         "from the same machine)")
    args = ap.parse_args()

    base_files = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not base_files:
        print(f"bench_diff: no baselines under {args.baseline}",
              file=sys.stderr)
        return 2

    all_ok = True
    benches = []  # (name, ratios, lines)
    for bf in base_files:
        fname = os.path.basename(bf)
        name, base = load_points(bf)
        if args.only and name not in args.only:
            continue
        cf = os.path.join(args.current, fname)
        if not os.path.exists(cf):
            print(f"{name}: current emission {cf} missing — did the bench "
                  f"binary run?", file=sys.stderr)
            all_ok = False
            continue
        _, cur = load_points(cf)
        ok, ratios, lines = diff_bench(name, base, cur)
        benches.append((name, fname, ratios, lines))
        all_ok = all_ok and ok

    # Current emissions with NO committed baseline fail the run. Skipping
    # them would let a brand-new bench ride unguarded forever — the perf
    # gate must grow with the bench suite, so the author of a new bench
    # records its baseline in the same change.
    base_names = {os.path.basename(bf) for bf in base_files}
    for cf in sorted(glob.glob(os.path.join(args.current, "BENCH_*.json"))):
        fname = os.path.basename(cf)
        if fname in base_names:
            continue
        name, _ = load_points(cf)
        if args.only and name not in args.only:
            continue
        print(f"{name}: FAIL {fname} has no committed baseline under "
              f"{args.baseline}; record one (copy the emission there after "
              f"verifying the run) so the new bench is gated from day one",
              file=sys.stderr)
        all_ok = False

    if not benches:
        print("bench_diff: nothing compared (check --only / paths)",
              file=sys.stderr)
        return 2 if all_ok else 1

    # Machine factor: the median label ratio across every compared bench.
    # A runner uniformly 2x slower than the baseline machine moves every
    # label by 2x and cancels; a regression localized to one bench's hot
    # path does not move the median much and stands out against it.
    all_ratios = sorted(r for _, _, ratios, _ in benches for r in ratios)
    factor = 1.0
    if not args.absolute and all_ratios:
        mid = len(all_ratios) // 2
        factor = (all_ratios[mid] if len(all_ratios) % 2
                  else (all_ratios[mid - 1] + all_ratios[mid]) / 2)

    for name, fname, ratios, lines in benches:
        print(f"{name} ({fname}):")
        print("\n".join(lines))
        if ratios:
            g = geomean(ratios) / factor
            verdict = "FAIL" if g > 1 + args.threshold else "ok"
            print(f"  {verdict} {name}: normalized geomean ns/event ratio "
                  f"{g:.3f} over {len(ratios)} label(s) "
                  f"(machine factor {factor:.3f}, threshold "
                  f"{1 + args.threshold:.2f})")
            if g > 1 + args.threshold:
                all_ok = False

    print("bench_diff:", "ok" if all_ok else "REGRESSION", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
