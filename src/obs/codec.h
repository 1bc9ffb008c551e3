// Binary telemetry codecs: one node's telemetry as the GET /obs body.
//
// The gateway serves a node's merged MetricsSnapshot, its registry samples
// and its StatusReport (placement included) on one read-only route, in the
// serde encodings below. tart-obs polls it and merges nodes exactly as the
// decoded values allow: counters sum, gauges take the max, histograms merge
// bucketwise — no Prometheus or JSON parsing on the console side.
//
// Decoders are bounds-checked: malformed input raises serde::DecodeError
// (trailing bytes included), never undefined behaviour.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/metrics.h"
#include "core/status.h"
#include "obs/registry.h"

namespace tart::obs {

/// Content type of the GET /obs body.
inline constexpr const char* kObsContentType = "application/x-tart-obs";

/// Fields travel in TART_METRICS_SCALAR_FIELDS declaration order — the
/// same X-macro that defines the struct, so a new field cannot be added
/// without being serialized.
[[nodiscard]] std::vector<std::byte> encode_metrics_body(
    const core::MetricsSnapshot& m);
[[nodiscard]] core::MetricsSnapshot decode_metrics_body(
    const std::vector<std::byte>& p);

[[nodiscard]] std::vector<std::byte> encode_status_body(
    const core::StatusReport& report);
[[nodiscard]] core::StatusReport decode_status_body(
    const std::vector<std::byte>& p);

[[nodiscard]] std::vector<std::byte> encode_obs_body(
    const std::vector<Sample>& samples);
[[nodiscard]] std::vector<Sample> decode_obs_body(
    const std::vector<std::byte>& p);

/// Everything GET /obs returns about one node.
struct NodeObs {
  core::MetricsSnapshot metrics;
  std::vector<Sample> samples;
  core::StatusReport status;
};

/// The three bodies above, each length-prefixed, in that order.
[[nodiscard]] std::vector<std::byte> encode_node_obs(const NodeObs& node);
[[nodiscard]] NodeObs decode_node_obs(std::string_view body);

}  // namespace tart::obs
