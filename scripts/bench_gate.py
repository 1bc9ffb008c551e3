#!/usr/bin/env python3
"""Bench regression gate: compare fresh bench JSON against committed baselines.

Usage:
    scripts/bench_gate.py [--out-dir bench/out] [--baseline-dir bench/baselines]
                          [--tolerance-scale X] [--update-baselines]

check.sh --smoke writes BENCH_<name>.json files into bench/out/; this script
compares each against the matching committed file in bench/baselines/ with
per-metric tolerances and prints a delta table. Exit is nonzero when any
gated metric regresses past its tolerance, so the perf trajectory is a CI
artifact, not a loose file.

Metric direction and tolerance are inferred from the metric name:

  *_frames_s / *_req_s / *_mib_s / *speedup*   higher is better; gate on drop
  *_us / *_ms (latencies, RTO)                 lower is better; gate on growth
  covered / suffix                             exact workload counts; equal
  calib_*                                      host calibration; informational
  everything else                              informational only

The in-process link rows (link_*) time thread wake-ups, so they follow the
machine, not the code. They are gated as ratios to the same run's condvar
ping-pong calibration (calib_condvar_rtt_p50_us, or _p99_us for p99 rows):
latencies divided by it, throughputs multiplied by it. A baseline and a
fresh run from different hosts then compare what the link code adds.

Smoke runs on shared CI boxes are noisy, so the default tolerances are
deliberately wide (35% throughput drop, 75% latency growth); the gate exists
to catch step-change regressions (a lock on the hot path, an accidental
O(n^2)), not 2% drift. --tolerance-scale multiplies both bounds for even
noisier environments. After an intentional perf change, rerun check.sh
--smoke on the reference machine and pass --update-baselines to commit the
new numbers.
"""

import argparse
import json
import pathlib
import shutil
import sys

THROUGHPUT_TOLERANCE = 0.35  # allowed fractional drop for higher-is-better
LATENCY_TOLERANCE = 0.75     # allowed fractional growth for lower-is-better

EXACT_METRICS = {"covered", "suffix"}
CALIBRATED_PREFIX = "link_"


def classify(name: str):
    """Return (direction, tolerance): 'higher'|'lower'|'exact'|'info'."""
    if name in EXACT_METRICS:
        return "exact", 0.0
    if name.startswith("calib_"):
        return "info", 0.0
    if name.endswith(("_frames_s", "_req_s", "_mib_s")) or "speedup" in name:
        return "higher", THROUGHPUT_TOLERANCE
    if name.endswith(("_us", "_ms")):
        return "lower", LATENCY_TOLERANCE
    return "info", 0.0


def load(path: pathlib.Path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "metrics" not in doc or not isinstance(doc["metrics"], dict):
        raise ValueError(f"{path}: no 'metrics' object")
    return doc


def calibrated(metrics: dict, path: pathlib.Path):
    """The metrics with link_* rows replaced by ratios to the calibration."""
    out = dict(metrics)
    for name, value in metrics.items():
        if not name.startswith(CALIBRATED_PREFIX):
            continue
        calib_name = ("calib_condvar_rtt_p99_us" if name.endswith("_p99_us")
                      else "calib_condvar_rtt_p50_us")
        calib = float(metrics.get(calib_name, 0))
        if calib <= 0:
            raise ValueError(f"{path}: {name} needs a positive {calib_name}")
        direction, _ = classify(name)
        out[name] = (float(value) * calib if direction == "higher"
                     else float(value) / calib)
    return out


def compare_file(base_path: pathlib.Path, out_path: pathlib.Path, scale: float):
    base = calibrated(load(base_path)["metrics"], base_path)
    fresh = calibrated(load(out_path)["metrics"], out_path)
    rows = []
    failures = []
    for name in sorted(set(base) | set(fresh)):
        if name not in fresh:
            failures.append(f"{out_path.name}: metric '{name}' disappeared")
            rows.append((name, base[name], None, None, "MISSING"))
            continue
        if name not in base:
            rows.append((name, None, fresh[name], None, "new"))
            continue
        b, f = float(base[name]), float(fresh[name])
        delta = (f - b) / b if b != 0 else 0.0
        direction, tol = classify(name)
        tol *= scale
        status = "ok"
        if direction == "higher" and f < b * (1.0 - tol):
            status = "REGRESSED"
        elif direction == "lower" and f > b * (1.0 + tol):
            status = "REGRESSED"
        elif direction == "exact" and f != b:
            status = "CHANGED"
        elif direction == "info":
            status = "info"
        if status in ("REGRESSED", "CHANGED"):
            failures.append(
                f"{out_path.name}: {name} {b:g} -> {f:g} "
                f"({delta:+.1%}, {direction}, tol {tol:.0%})")
        rows.append((name, b, f, delta, status))
    return rows, failures


def print_table(title: str, rows):
    print(f"\n== {title} ==")
    print(f"{'metric':<28} {'baseline':>14} {'fresh':>14} {'delta':>9}  status")
    for name, b, f, delta, status in rows:
        bs = f"{b:g}" if b is not None else "-"
        fs = f"{f:g}" if f is not None else "-"
        ds = f"{delta:+.1%}" if delta is not None else "-"
        print(f"{name:<28} {bs:>14} {fs:>14} {ds:>9}  {status}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out-dir", default="bench/out",
                    help="directory with fresh BENCH_*.json (default bench/out)")
    ap.add_argument("--baseline-dir", default="bench/baselines",
                    help="directory with committed baselines")
    ap.add_argument("--tolerance-scale", type=float, default=1.0,
                    help="multiply all tolerances (noisy environments)")
    ap.add_argument("--update-baselines", action="store_true",
                    help="copy fresh results over the baselines instead of gating")
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    base_dir = pathlib.Path(args.baseline_dir)
    fresh_files = sorted(out_dir.glob("BENCH_*.json"))
    if not fresh_files:
        print(f"bench_gate: no BENCH_*.json in {out_dir}", file=sys.stderr)
        return 2

    if args.update_baselines:
        base_dir.mkdir(parents=True, exist_ok=True)
        for f in fresh_files:
            shutil.copy2(f, base_dir / f.name)
            print(f"bench_gate: baseline updated: {base_dir / f.name}")
        return 0

    all_failures = []
    compared = 0
    for out_path in fresh_files:
        base_path = base_dir / out_path.name
        if not base_path.exists():
            print(f"bench_gate: no baseline for {out_path.name} "
                  f"(run with --update-baselines to create)", file=sys.stderr)
            all_failures.append(f"{out_path.name}: baseline missing")
            continue
        try:
            rows, failures = compare_file(base_path, out_path,
                                          args.tolerance_scale)
        except (ValueError, json.JSONDecodeError) as e:
            all_failures.append(str(e))
            continue
        print_table(out_path.name, rows)
        if any(row[0].startswith(CALIBRATED_PREFIX) for row in rows):
            print(f"({CALIBRATED_PREFIX}* rows: ratios to calib_condvar_rtt_*)")
        all_failures.extend(failures)
        compared += 1

    print()
    if all_failures:
        for f in all_failures:
            print(f"bench_gate: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"bench_gate: OK ({compared} file(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
