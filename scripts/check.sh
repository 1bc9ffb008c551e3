#!/usr/bin/env bash
# Tier-1 gate: plain build + full ctest, then the same suite under
# AddressSanitizer, then a ThreadSanitizer subset (always, --smoke too).
# Usage: scripts/check.sh [--no-asan] [--smoke]
#
# --smoke additionally runs the bench smokes with --json, collects the
# machine-readable results in bench/out/ (gitignored), and gates them
# against the committed baselines in bench/baselines/ via
# scripts/bench_gate.py — a >tolerance regression fails the run. After an
# intentional perf change: scripts/bench_gate.py --update-baselines.
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
smoke_json=0
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --smoke) smoke_json=1 ;;
    *) echo "usage: scripts/check.sh [--no-asan] [--smoke]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== gateway bench smoke =="
if [[ "$smoke_json" == 1 ]]; then
  mkdir -p bench/out
  ./build/bench/bench_gateway --smoke --json=bench/out/BENCH_gateway.json
else
  ./build/bench/bench_gateway --smoke
fi

# Recovery smoke: SIGKILL a checkpointed ingester, restart it, and assert
# the restart actually boots from the checkpoint and replays only the log
# suffix (docs/RECOVERY.md).
echo "== recovery bench smoke =="
if [[ "$smoke_json" == 1 ]]; then
  ./build/bench/bench_recovery --smoke --json=bench/out/BENCH_recovery.json
else
  ./build/bench/bench_recovery --smoke
fi

# Transport smoke (only when collecting artifacts: it is the slowest of
# the smokes and adds no assertion coverage beyond running clean).
if [[ "$smoke_json" == 1 ]]; then
  echo "== net bench smoke =="
  ./build/bench/bench_net --smoke --json=bench/out/BENCH_net.json
  echo "collected: bench/out/BENCH_{gateway,recovery,net}.json"
  echo "== bench regression gate =="
  # TART_BENCH_GATE_SCALE widens the tolerances on noisy machines (CI
  # sets 2); the reference machine runs at 1.
  python3 scripts/bench_gate.py \
    --tolerance-scale "${TART_BENCH_GATE_SCALE:-1}"
fi

# Migration smoke: one live round trip of a stateful component between
# engines over loopback, asserting completion, a bounded blackout, and an
# advancing placement epoch (docs/PLACEMENT.md).
echo "== migration bench smoke =="
./build/bench/bench_migration --smoke

# Exposition lint: the Prometheus-conventions linter (obs::lint_exposition)
# must pass both on synthetic pages (obs_test) and against a real gateway
# scrape (gateway_test's MetricsAndHealthz). Run them by name so a filter
# change in the suites can't silently drop the gate.
echo "== exposition lint =="
./build/tests/obs_test \
  --gtest_filter='ExpositionLint.*:Exposition.*:Exemplars.*' --gtest_brief=1
./build/tests/gateway_test \
  --gtest_filter='*MetricsAndHealthz*:*StatusReportsSilenceWavefront*' \
  --gtest_brief=1

if [[ "$run_asan" == 1 ]]; then
  echo "== tier-1 under AddressSanitizer =="
  cmake -B build-asan -S . -DTART_SANITIZE=address >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
  # The HTTP parser fuzz tests (gateway_test) run again here under ASan —
  # that is the memory-safety net for the byte-mutation corpus.
  echo "== gateway bench smoke (ASan) =="
  ./build-asan/bench/bench_gateway --smoke
fi

# ThreadSanitizer subset: the suites whose threads cross into each other —
# runner threads calling the gateway's output listener, which posts to the
# gateway loop; group commit against probes; trace writers; staged bursts
# routed between runners while probes read their counts and horizons, and
# across crash/recover; runners entering and leaving the active count while
# drain, catch-up and the checkpoint barrier wait on it. Built and run by
# name so a filter change in the suites can't silently drop them.
echo "== ThreadSanitizer subset =="
tsan_tests=(gateway_test core_runtime_test stable_store_test
            trace_determinism_test property_determinism_test recovery_test
            runner_behavior_test durability_test)
cmake -B build-tsan -S . -DTART_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target "${tsan_tests[@]}"
for t in "${tsan_tests[@]}"; do
  ./build-tsan/tests/"$t" --gtest_brief=1
done

echo "OK"
