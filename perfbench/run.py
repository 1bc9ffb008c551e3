#!/usr/bin/env python3
"""Repository benchmark: build the system under test from this checkout and
run one workload against it.

    python3 perfbench/run.py --workload two_node|fanin|replay --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root) and its log to stderr, so the last line on stdout is the
result JSON printed by the perfbench binary. Span logs and one full record
per run (host fingerprint and calibration included) are kept under
<build dir>/results. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("two_node", "fanin", "replay")
RUN_TIMEOUT_S = 170


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no system under test in {ROOT} (src/ is missing)",
              file=sys.stderr)
        return 2

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Scratch space a killed run may have left behind.
    for stale in (build_root / "results").glob("work-*"):
        shutil.rmtree(stale, ignore_errors=True)
    sys.stdout.flush()
    try:
        return subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--out-dir", str(build_root / "results")],
            cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
