#include "durability/replay.h"

#include "core/runtime.h"

namespace tart::durability {

namespace {

/// Every external input wire's consumer has accounted the log's full
/// horizon: the suffix has been handed over.
bool suffix_delivered(core::Runtime& runtime) {
  const core::StatusReport report = runtime.status();
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
  runtime.set_output_suppressed(true);

  ReplayStats stats;
  stats.covered_records = runtime.recovery_info().covered_records;
  stats.suffix_records = runtime.recovery_info().suffix_records;

  // Delivered, then one read of the active count: a runner handed work
  // before that read is still counted unless it has parked again, and a
  // runner parks only with no eligible head. A component held awaiting
  // silence on a still-open wire is parked, so it is caught up: the
  // pre-crash system was in the same blocked state, and only new input or
  // silence can move it.
  core::Quiescence& quiescence = runtime.quiescence();
  stats.caught_up = quiescence.wait_until(start + timeout, [&] {
    return suffix_delivered(runtime) && quiescence.active() == 0;
  });

  runtime.set_output_suppressed(false);
  stats.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return stats;
}

}  // namespace tart::durability
