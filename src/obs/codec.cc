#include "obs/codec.h"

#include "serde/archive.h"

namespace tart::obs {

std::vector<std::byte> encode_metrics_body(const core::MetricsSnapshot& m) {
  serde::Writer w;
#define TART_OBS_WRITE_FIELD(field, prom, help, agg, scale) \
  w.write_varint(m.field);
  TART_METRICS_SCALAR_FIELDS(TART_OBS_WRITE_FIELD)
#undef TART_OBS_WRITE_FIELD
  return w.take();
}

core::MetricsSnapshot decode_metrics_body(const std::vector<std::byte>& p) {
  serde::Reader r(p);
  core::MetricsSnapshot m;
#define TART_OBS_READ_FIELD(field, prom, help, agg, scale) \
  m.field = r.read_varint();
  TART_METRICS_SCALAR_FIELDS(TART_OBS_READ_FIELD)
#undef TART_OBS_READ_FIELD
  if (!r.at_end()) throw serde::DecodeError("metrics body: trailing bytes");
  return m;
}

std::vector<std::byte> encode_status_body(const core::StatusReport& report) {
  serde::Writer w;
  w.write_varint(report.components.size());
  for (const core::ComponentStatus& c : report.components) {
    w.write_varint(c.id.value());
    w.write_string(c.name);
    w.write_svarint(c.vt_ticks);
    w.write_varint(c.pending);
    w.write_bool(c.exhausted);
    w.write_bool(c.crashed);
    w.write_bool(c.held);
    w.write_svarint(c.held_vt);
    w.write_varint(c.held_wire.value());
    w.write_varint(c.inputs.size());
    for (const core::WireStatus& ws : c.inputs) {
      w.write_varint(ws.wire.value());
      w.write_string(ws.sender);
      w.write_svarint(ws.horizon_ticks);
      w.write_varint(ws.pending);
      w.write_bool(ws.blocking);
    }
  }
  w.write_varint(report.placement_epoch);
  w.write_varint(report.placement.size());
  for (const core::PlacementEntry& e : report.placement) {
    w.write_varint(e.component);
    w.write_varint(e.engine);
    w.write_varint(e.epoch);
  }
  w.write_varint(report.migrations.size());
  for (const core::MigrationStatus& m : report.migrations) {
    w.write_varint(m.epoch);
    w.write_varint(m.component);
    w.write_varint(m.from_engine);
    w.write_varint(m.to_engine);
    w.write_string(m.stage);
  }
  return w.take();
}

core::StatusReport decode_status_body(const std::vector<std::byte>& p) {
  serde::Reader r(p);
  core::StatusReport report;
  const std::uint64_t n = r.read_varint();
  report.components.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    core::ComponentStatus c;
    c.id = ComponentId(static_cast<std::uint32_t>(r.read_varint()));
    c.name = r.read_string();
    c.vt_ticks = r.read_svarint();
    c.pending = r.read_varint();
    c.exhausted = r.read_bool();
    c.crashed = r.read_bool();
    c.held = r.read_bool();
    c.held_vt = r.read_svarint();
    c.held_wire = WireId(static_cast<std::uint32_t>(r.read_varint()));
    const std::uint64_t nin = r.read_varint();
    c.inputs.reserve(nin);
    for (std::uint64_t j = 0; j < nin; ++j) {
      core::WireStatus ws;
      ws.wire = WireId(static_cast<std::uint32_t>(r.read_varint()));
      ws.sender = r.read_string();
      ws.horizon_ticks = r.read_svarint();
      ws.pending = r.read_varint();
      ws.blocking = r.read_bool();
      c.inputs.push_back(std::move(ws));
    }
    report.components.push_back(std::move(c));
  }
  report.placement_epoch = r.read_varint();
  const std::uint64_t np = r.read_varint();
  report.placement.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) {
    core::PlacementEntry e;
    e.component = static_cast<std::uint32_t>(r.read_varint());
    e.engine = static_cast<std::uint32_t>(r.read_varint());
    e.epoch = r.read_varint();
    report.placement.push_back(e);
  }
  const std::uint64_t nm = r.read_varint();
  report.migrations.reserve(nm);
  for (std::uint64_t i = 0; i < nm; ++i) {
    core::MigrationStatus m;
    m.epoch = r.read_varint();
    m.component = static_cast<std::uint32_t>(r.read_varint());
    m.from_engine = static_cast<std::uint32_t>(r.read_varint());
    m.to_engine = static_cast<std::uint32_t>(r.read_varint());
    m.stage = r.read_string();
    report.migrations.push_back(std::move(m));
  }
  if (!r.at_end()) throw serde::DecodeError("status body: trailing bytes");
  return report;
}

std::vector<std::byte> encode_obs_body(const std::vector<Sample>& samples) {
  serde::Writer w;
  encode_samples(w, samples);
  return w.take();
}

std::vector<Sample> decode_obs_body(const std::vector<std::byte>& p) {
  serde::Reader r(p);
  auto samples = decode_samples(r);
  if (!r.at_end()) throw serde::DecodeError("obs body: trailing bytes");
  return samples;
}

std::vector<std::byte> encode_node_obs(const NodeObs& node) {
  serde::Writer w;
  w.write_bytes(encode_metrics_body(node.metrics));
  w.write_bytes(encode_obs_body(node.samples));
  w.write_bytes(encode_status_body(node.status));
  return w.take();
}

NodeObs decode_node_obs(std::string_view body) {
  serde::Reader r(reinterpret_cast<const std::byte*>(body.data()),
                  body.size());
  NodeObs node;
  node.metrics = decode_metrics_body(r.read_bytes());
  node.samples = decode_obs_body(r.read_bytes());
  node.status = decode_status_body(r.read_bytes());
  if (!r.at_end()) throw serde::DecodeError("node obs body: trailing bytes");
  return node;
}

}  // namespace tart::obs
