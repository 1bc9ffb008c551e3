// Runtime metrics: the quantities the paper's evaluation tracks ("We
// counted the number of out-of-order messages, the number of curiosity
// probes, and the average end-to-end latency", §III.A) plus the
// pessimism-delay accounting that explains the overhead of determinism.
//
// Every scalar field of MetricsSnapshot is enumerated EXACTLY ONCE, in
// TART_METRICS_COMPONENT_FIELDS / TART_METRICS_GLOBAL_FIELDS below. The
// struct definition, operator+= aggregation, GET /obs serde
// (obs/codec.cc), Prometheus exposition and the `tart-obs --series` JSON
// line (obs/exposition.cc) are all generated from that list — adding a
// counter without listing it is a compile error (see the static_assert),
// not a silently-unmerged field.
//
// X-macro columns: X(field, prom_name, help, agg, scale)
//   field      C++ member name
//   prom_name  exposition name (tart_ prefix, _total/_seconds suffixes per
//              docs/OBSERVABILITY.md)
//   agg        SUM (counter; += merges by addition) or
//              MAX (high-water gauge; += merges by maximum)
//   scale      multiplier applied at exposition only (1e-9 turns a raw
//              nanosecond counter into a _seconds_total series); raw
//              values stay integral so cross-node merging is exact
#pragma once

#include <cstdint>
#include <string>

#include "obs/registry.h"

namespace tart::core {

// Per-component scheduler counters. Kept in the telemetry registry as
// labelled series ({component="..."}); MetricsSnapshot carries the
// plain-value readout.
#define TART_METRICS_COMPONENT_FIELDS(X)                                      \
  X(messages_processed, "tart_messages_processed_total",                      \
    "Messages dispatched to component handlers", SUM, 1.0)                    \
  X(calls_served, "tart_calls_served_total",                                  \
    "Synchronous calls served (on_call invocations)", SUM, 1.0)               \
  X(probes_sent, "tart_probes_sent_total",                                    \
    "Curiosity probes sent at lagging senders", SUM, 1.0)                     \
  X(pessimism_events, "tart_pessimism_events_total",                          \
    "Stall episodes: the earliest message held awaiting silence", SUM, 1.0)   \
  X(pessimism_wait_ns, "tart_pessimism_wait_seconds_total",                   \
    "Wall time blocked awaiting other wires' silence promises", SUM, 1e-9)    \
  X(estimator_underestimates, "tart_estimator_underestimates_total",          \
    "Handler executions that ran longer than the estimator's charge", SUM,    \
    1.0)                                                                      \
  X(out_of_order_arrivals, "tart_out_of_order_arrivals_total",                \
    "Arrivals whose virtual time inverted the arrival order", SUM, 1.0)       \
  X(duplicates_discarded, "tart_duplicates_discarded_total",                  \
    "Replay duplicates discarded by timestamp (SS II.F.4)", SUM, 1.0)         \
  X(gaps_detected, "tart_gaps_detected_total",                                \
    "Sequence gaps detected (lost ticks needing replay)", SUM, 1.0)           \
  X(checkpoints_taken, "tart_checkpoints_taken_total",                        \
    "Soft checkpoints shipped to the passive replica", SUM, 1.0)              \
  X(handoff_batches, "tart_handoff_batches_total",                            \
    "Staged data bursts routed, one per output wire per flush", SUM, 1.0)     \
  X(handoff_frames, "tart_handoff_frames_total",                              \
    "Data frames carried by those bursts", SUM, 1.0)

// Process-wide counters filled in by the tracer, the socket transport
// (NetHost), stable storage, and the HTTP ingress gateway. Zero when the
// subsystem is not configured.
#define TART_METRICS_GLOBAL_FIELDS(X)                                         \
  X(trace_events_recorded, "tart_trace_events_recorded_total",                \
    "Flight-recorder events recorded", SUM, 1.0)                              \
  X(trace_events_dropped, "tart_trace_events_dropped_total",                  \
    "Flight-recorder events dropped on ring overflow", SUM, 1.0)              \
  X(net_bytes_in, "tart_net_bytes_in_total",                                  \
    "Bytes received from peer nodes", SUM, 1.0)                               \
  X(net_bytes_out, "tart_net_bytes_out_total", "Bytes sent to peer nodes",    \
    SUM, 1.0)                                                                 \
  X(net_frames_in, "tart_net_frames_in_total",                                \
    "Transport frames received from peer nodes", SUM, 1.0)                    \
  X(net_frames_out, "tart_net_frames_out_total",                              \
    "Transport frames sent to peer nodes", SUM, 1.0)                          \
  X(net_reconnects, "tart_net_reconnects_total",                              \
    "Peer connection re-establishments", SUM, 1.0)                            \
  X(net_heartbeat_misses, "tart_net_heartbeat_misses_total",                  \
    "Peer liveness timeouts", SUM, 1.0)                                       \
  X(net_frames_refused, "tart_net_frames_refused_total",                      \
    "Frames dropped by backpressure or link-down", SUM, 1.0)                  \
  X(net_queue_high_water, "tart_net_queue_high_water",                        \
    "Max frames ever queued to any one peer", MAX, 1.0)                       \
  X(store_records_written, "tart_store_records_written_total",                \
    "Records appended to stable storage", SUM, 1.0)                           \
  X(store_flushes, "tart_store_flushes_total",                                \
    "Stable-store fsync flushes (less than records = group commit)", SUM,     \
    1.0)                                                                      \
  X(gw_requests, "tart_gw_requests_total", "HTTP requests parsed", SUM, 1.0)  \
  X(gw_acked, "tart_gw_acked_total",                                          \
    "Injections acked 200 (durable, log-before-ack)", SUM, 1.0)               \
  X(gw_rejected, "tart_gw_rejected_total", "429 admission rejections", SUM,   \
    1.0)                                                                      \
  X(gw_errors, "tart_gw_errors_total", "Other 4xx/5xx responses", SUM, 1.0)   \
  X(gw_commit_batches, "tart_gw_commit_batches_total",                        \
    "Group-commit rounds", SUM, 1.0)                                          \
  X(gw_commit_records, "tart_gw_commit_records_total",                        \
    "Injections across all commit rounds", SUM, 1.0)                          \
  X(gw_commit_batch_max, "tart_gw_commit_batch_max",                          \
    "Largest single group-commit round", MAX, 1.0)                            \
  X(gw_redirects, "tart_gw_redirects_total",                                  \
    "307 redirects to the input's current owner after migration", SUM, 1.0)   \
  X(gw_poll_wakeups, "tart_gw_poll_wakeups_total",                            \
    "Parked long-polls re-examined (output landed or deadline passed)", SUM,  \
    1.0)                                                                      \
  X(ckpt_written, "tart_ckpt_written_total",                                  \
    "Durable checkpoint files written", SUM, 1.0)                             \
  X(ckpt_bytes, "tart_ckpt_bytes_total",                                      \
    "Bytes written into durable checkpoint files", SUM, 1.0)                  \
  X(ckpt_failed, "tart_ckpt_failed_total",                                    \
    "Durable checkpoint attempts that failed (barrier or write)", SUM, 1.0)   \
  X(ckpt_skipped_invalid, "tart_ckpt_skipped_invalid_total",                  \
    "Torn/corrupt checkpoint files skipped at restart", SUM, 1.0)             \
  X(log_segments, "tart_log_segments",                                        \
    "External-log segments currently on disk", MAX, 1.0)                      \
  X(log_bytes_on_disk, "tart_log_bytes_on_disk",                              \
    "Bytes the segmented external log occupies on disk", MAX, 1.0)            \
  X(log_segments_deleted, "tart_log_segments_deleted_total",                  \
    "Wholly-covered log segments deleted by compaction", SUM, 1.0)            \
  X(log_records_reclaimed, "tart_log_records_reclaimed_total",                \
    "Log records reclaimed by checkpoint-gated compaction", SUM, 1.0)         \
  X(restart_covered_records, "tart_restart_covered_records",                  \
    "Log records the restart checkpoint covered (not replayed)", MAX, 1.0)    \
  X(restart_suffix_records, "tart_restart_suffix_records",                    \
    "Log records replayed from the suffix at restart", MAX, 1.0)              \
  X(restart_log_bytes_read, "tart_restart_log_bytes_read",                    \
    "Bytes a cold restart read from external-log segments", MAX, 1.0)         \
  X(net_msgs_in, "tart_net_msgs_in_total",                                    \
    "Non-frame peer messages received (placement/stream/cover)", SUM, 1.0)    \
  X(net_msgs_out, "tart_net_msgs_out_total",                                  \
    "Non-frame peer messages sent (placement/stream/cover)", SUM, 1.0)        \
  X(mig_started, "tart_mig_started_total",                                    \
    "Live migrations initiated on this node as source", SUM, 1.0)             \
  X(mig_completed, "tart_mig_completed_total",                                \
    "Live migrations that reached cutover (source side)", SUM, 1.0)           \
  X(mig_failed, "tart_mig_failed_total",                                      \
    "Live migrations aborted or rolled back (source side)", SUM, 1.0)         \
  X(mig_adopted, "tart_mig_adopted_total",                                    \
    "Components adopted by this node as migration target", SUM, 1.0)          \
  X(mig_evicted, "tart_mig_evicted_total",                                    \
    "Components evicted from this node after cutover", SUM, 1.0)              \
  X(mig_bytes_sent, "tart_mig_bytes_sent_total",                              \
    "Checkpoint-slice bytes shipped to migration targets", SUM, 1.0)          \
  X(mig_bytes_received, "tart_mig_bytes_received_total",                      \
    "Checkpoint-slice bytes received as migration target", SUM, 1.0)          \
  X(mig_updates_applied, "tart_mig_updates_applied_total",                    \
    "Placement updates applied from peers (re-routes)", SUM, 1.0)             \
  X(retention_trimmed_records, "tart_retention_trimmed_records_total",        \
    "Retention-buffer records trimmed below the remote durable cover",        \
    SUM, 1.0)

#define TART_METRICS_SCALAR_FIELDS(X) \
  TART_METRICS_COMPONENT_FIELDS(X)    \
  TART_METRICS_GLOBAL_FIELDS(X)

/// Plain-value snapshot for reporting; fields generated from the list.
struct MetricsSnapshot {
#define TART_METRICS_DECLARE(field, prom, help, agg, scale) \
  std::uint64_t field = 0;
  TART_METRICS_SCALAR_FIELDS(TART_METRICS_DECLARE)
#undef TART_METRICS_DECLARE
};

namespace detail {
#define TART_METRICS_COUNT(field, prom, help, agg, scale) +1
inline constexpr std::size_t kMetricsFieldCount =
    0 TART_METRICS_SCALAR_FIELDS(TART_METRICS_COUNT);
#undef TART_METRICS_COUNT
}  // namespace detail

// The field-forgetting guard: a uint64 member added to MetricsSnapshot by
// hand (outside the X-macro) changes sizeof without changing the count,
// and the build stops here instead of silently skipping the field in
// operator+=, serde, and exposition.
static_assert(sizeof(MetricsSnapshot) ==
                  detail::kMetricsFieldCount * sizeof(std::uint64_t),
              "every MetricsSnapshot field must be enumerated in "
              "TART_METRICS_COMPONENT_FIELDS or TART_METRICS_GLOBAL_FIELDS");

#define TART_METRICS_AGG_SUM(field) a.field += b.field;
#define TART_METRICS_AGG_MAX(field) \
  a.field = a.field > b.field ? a.field : b.field;
#define TART_METRICS_MERGE(field, prom, help, agg, scale) \
  TART_METRICS_AGG_##agg(field)

inline MetricsSnapshot& operator+=(MetricsSnapshot& a,
                                   const MetricsSnapshot& b) {
  TART_METRICS_SCALAR_FIELDS(TART_METRICS_MERGE)
  return a;
}

#undef TART_METRICS_MERGE
#undef TART_METRICS_AGG_SUM
#undef TART_METRICS_AGG_MAX

/// Per-runner handles into the telemetry registry: one labelled counter
/// cell per component field, found-or-created by name so a recovered
/// component re-attaches to its series (counts survive crash/recover the
/// way trace streams do; checkpoint restore overwrites messages_processed
/// via Counter::set). Increments are relaxed atomic adds on stable cells —
/// the registry is never touched after construction.
class RunnerMetrics {
 public:
  RunnerMetrics(obs::Registry& registry, const std::string& component)
      :
#define TART_METRICS_INIT(field, prom, help, agg, scale)            \
  field(registry.counter(prom, help,                                \
                         obs::Labels{{"component", component}},     \
                         scale)),
        TART_METRICS_COMPONENT_FIELDS(TART_METRICS_INIT)
#undef TART_METRICS_INIT
            component_(component) {
  }

#define TART_METRICS_MEMBER(field, prom, help, agg, scale) obs::Counter& field;
  TART_METRICS_COMPONENT_FIELDS(TART_METRICS_MEMBER)
#undef TART_METRICS_MEMBER

  [[nodiscard]] const std::string& component() const { return component_; }

  [[nodiscard]] MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
#define TART_METRICS_READ(field, prom, help, agg, scale) \
  s.field = field.value();
    TART_METRICS_COMPONENT_FIELDS(TART_METRICS_READ)
#undef TART_METRICS_READ
    return s;
  }

 private:
  const std::string component_;
};

}  // namespace tart::core
