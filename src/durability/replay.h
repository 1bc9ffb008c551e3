// Tiered fast restart: the high-speed replay driver.
//
// After a restart, Runtime::start() restores every component from the
// newest durable checkpoint and each component asks the external log to
// replay only the uncovered suffix (§II.F.3/4). This driver wraps that
// catch-up window: external output callbacks are suppressed (the outside
// world already saw these messages — replay must be invisible, §II.A), and
// the caller blocks until the wavefront has consumed the whole suffix.
// RTO therefore scales with the suffix length, not the log length —
// bench/bench_recovery.cc measures exactly this.
#pragma once

#include <chrono>
#include <cstdint>

namespace tart::core {
class Runtime;
}

namespace tart::durability {

struct ReplayStats {
  bool caught_up = false;          ///< quiescent within the timeout
  std::uint64_t covered_records = 0;  ///< skipped thanks to the checkpoint
  std::uint64_t suffix_records = 0;   ///< replayed from the log suffix
  double seconds = 0;              ///< wall time spent catching up
};

class ReplayDriver {
 public:
  /// Blocks until every component has processed the recovered log suffix
  /// (or the timeout passes): the suffix is delivered and no runner has
  /// work in hand (Runtime::quiescence). Call after Runtime::start() and
  /// before exposing the node to new external input. Outputs are
  /// suppressed meanwhile; delivered records are still retained. A
  /// component held awaiting silence on a still-open wire is caught up —
  /// the pre-crash wavefront was parked there too, and only new input (or
  /// a probe) can advance it — so catch_up doubles as a live "settle"
  /// barrier.
  static ReplayStats catch_up(
      core::Runtime& runtime,
      std::chrono::milliseconds timeout = std::chrono::seconds(30));
};

}  // namespace tart::durability
