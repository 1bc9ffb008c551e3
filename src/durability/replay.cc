#include "durability/replay.h"

#include <thread>

#include "core/runtime.h"

namespace tart::durability {

namespace {

/// One quiescence probe: no component has RUNNABLE work or a burst in
/// hand (busy: handlers running, or their staged output not yet routed),
/// and every external input wire's consumer has accounted the log's full
/// horizon.
/// A held component (pending messages blocked awaiting silence from a
/// still-open wire) IS caught up: the pre-crash system was in exactly the
/// same blocked state, and only new input or silence can move it — replay
/// has nothing left to contribute.
bool caught_up_once(core::Runtime& runtime) {
  const core::StatusReport report = runtime.status();
  for (const auto& component : report.components) {
    if (component.crashed) continue;  // deliberately down; not our wait
    if (component.busy) return false;
    if (component.pending != 0 && !component.held) return false;
  }
  for (const WireId wire : runtime.external_input_wires()) {
    const VirtualTime goal = runtime.external_log().last_vt(wire);
    if (goal.ticks() < 0) continue;  // nothing ever logged on this wire
    const ComponentId consumer = runtime.topology().wire(wire).to;
    for (const auto& component : report.components) {
      if (component.id != consumer) continue;
      for (const auto& input : component.inputs)
        if (input.wire == wire && input.horizon_ticks < goal.ticks())
          return false;
    }
  }
  return true;
}

}  // namespace

ReplayStats ReplayDriver::catch_up(core::Runtime& runtime,
                                   std::chrono::milliseconds timeout) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + timeout;
  runtime.set_output_suppressed(true);

  ReplayStats stats;
  stats.covered_records = runtime.recovery_info().covered_records;
  stats.suffix_records = runtime.recovery_info().suffix_records;

  // Two consecutive quiet probes. `busy` covers a burst still in one
  // runner's hands; a single probe can still race a burst routed between
  // the reads of two runners (upstream hands off to a downstream runner
  // already read as quiet, then reads as quiet itself).
  int quiet = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (caught_up_once(runtime)) {
      if (++quiet >= 2) {
        stats.caught_up = true;
        break;
      }
    } else {
      quiet = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  runtime.set_output_suppressed(false);
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return stats;
}

}  // namespace tart::durability
