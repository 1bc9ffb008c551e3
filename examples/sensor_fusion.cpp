// Sensor fusion: a stateful event-correlation pipeline with two-way calls.
//
// Four sensor front-ends normalize raw readings by *calling* a shared
// calibration service (two-way messages: the caller blocks until the reply
// arrives and resumes at the reply's virtual time), then feed a fusion
// component that keeps a per-sensor last-reading table and emits a fused
// average whenever any sensor updates. The deterministic merge guarantees
// every run fuses readings in the identical order — the property that lets
// a failed fusion node recover by replay with no coordination.
#include <cstdio>

#include "checkpoint/checkpointed_map.h"
#include "checkpoint/checkpointed_value.h"
#include "core/runtime.h"
#include "estimator/estimator.h"

using namespace tart;

namespace {

/// Calibration service: per-sensor offset table, consulted via calls.
class CalibrationService : public core::Component {
 public:
  void on_message(core::Context&, PortId, const Payload&) override {
    throw std::logic_error("calibration is call-only");
  }

  Payload on_call(core::Context& ctx, PortId /*port*/,
                  const Payload& request) override {
    ctx.count_block(0);
    const auto& req = request.as_ints();  // [sensor_id, raw_reading]
    const std::int64_t sensor = req[0];
    // Drift model: every consultation nudges the stored offset — state
    // that must survive failover for replies to replay identically.
    offsets_.update(sensor, [](std::int64_t& o) { o += 1; });
    return Payload(req[1] + *offsets_.find(sensor));
  }

  void capture_full(serde::Writer& w) const override {
    offsets_.capture_full(w);
  }
  void capture_delta(serde::Writer& w) override {
    offsets_.capture_delta(w);
  }
  [[nodiscard]] bool supports_delta() const override { return true; }
  void restore_full(serde::Reader& r) override { offsets_.restore_full(r); }
  void apply_delta(serde::Reader& r) override { offsets_.apply_delta(r); }

 private:
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> offsets_;
};

/// Sensor front-end: calls the calibration service, forwards the
/// normalized reading tagged with its sensor id.
class SensorFrontEnd : public core::Component {
 public:
  explicit SensorFrontEnd(std::int64_t sensor_id) : sensor_id_(sensor_id) {}

  void on_message(core::Context& ctx, PortId /*port*/,
                  const Payload& payload) override {
    ctx.count_block(0);
    const Payload calibrated = ctx.call(
        PortId(1),
        Payload(std::vector<std::int64_t>{sensor_id_, payload.as_int()}));
    ctx.send(PortId(0), Payload(std::vector<std::int64_t>{
                            sensor_id_, calibrated.as_int()}));
  }

  void capture_full(serde::Writer& w) const override {
    w.write_svarint(sensor_id_);
  }
  void restore_full(serde::Reader& r) override {
    sensor_id_ = r.read_svarint();
  }

 private:
  std::int64_t sensor_id_;
};

/// Fusion: last-reading table + running fused average.
class FusionComponent : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId /*port*/,
                  const Payload& payload) override {
    const auto& reading = payload.as_ints();  // [sensor_id, value]
    ctx.count_block(0);
    last_.put(reading[0], reading[1]);
    std::int64_t sum = 0;
    for (const auto& [id, v] : last_.sorted()) {
      ctx.count_block(1);
      sum += v;
    }
    fused_.set(sum / static_cast<std::int64_t>(last_.size()));
    ctx.send(PortId(0), Payload(fused_.get()));
  }

  void capture_full(serde::Writer& w) const override {
    last_.capture_full(w);
    fused_.capture_full(w);
  }
  void restore_full(serde::Reader& r) override {
    last_.restore_full(r);
    fused_.restore_full(r);
  }

 private:
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> last_;
  checkpoint::CheckpointedValue<std::int64_t> fused_{0};
};

}  // namespace

int main() {
  constexpr int kSensors = 4;
  core::Topology topo;

  const auto calibration = topo.add("calibration", [] {
    return std::make_unique<CalibrationService>();
  });
  topo.set_estimator(calibration, [] {
    return std::make_unique<estimator::ConstantEstimator>(
        TickDuration::micros(20));
  });
  const auto fusion =
      topo.add("fusion", [] { return std::make_unique<FusionComponent>(); });
  // Fusion cost: beta0 + beta2 * table-scan length (Equation 1 with two
  // blocks: block 0 fires once, block 1 per table entry).
  topo.set_estimator(fusion, [] {
    return std::make_unique<estimator::LinearEstimator>(
        std::vector<double>{5000.0, 10000.0, 2000.0});
  });

  std::vector<WireId> inputs;
  for (int s = 0; s < kSensors; ++s) {
    const auto frontend = topo.add(
        "sensor" + std::to_string(s),
        [s] { return std::make_unique<SensorFrontEnd>(s); });
    topo.set_estimator(frontend, [] {
      return std::make_unique<estimator::ConstantEstimator>(
          TickDuration::micros(15));
    });
    inputs.push_back(topo.external_input(frontend, PortId(0)));
    topo.connect_call(frontend, PortId(1), calibration, PortId(0));
    topo.connect(frontend, PortId(0), fusion, PortId(0));
  }
  const auto out = topo.external_output(fusion, PortId(0));

  // Sensors + calibration on engine 0; fusion on engine 1 with a
  // checkpointed passive replica.
  std::map<ComponentId, EngineId> placement;
  for (const auto& spec : topo.components())
    placement[spec.id] = spec.name == "fusion" ? EngineId(1) : EngineId(0);

  core::RuntimeConfig config;
  config.checkpoint.every_n_messages = 10;
  core::Runtime rt(topo, placement, config);
  rt.start();

  // A deterministic interleaved reading schedule.
  for (int round = 0; round < 25; ++round) {
    for (int s = 0; s < kSensors; ++s) {
      rt.inject_at(inputs[static_cast<std::size_t>(s)],
                   VirtualTime(round * 1'000'000 + s * 137'000),
                   Payload(std::int64_t{100 * (s + 1) + round}));
    }
  }
  rt.drain();

  const auto records = rt.output_records(out);
  std::printf("fused %zu readings from %d sensors\n", records.size(),
              kSensors);
  std::printf("last five fused values:");
  for (std::size_t i = records.size() >= 5 ? records.size() - 5 : 0;
       i < records.size(); ++i)
    std::printf(" %lld", static_cast<long long>(records[i].payload.as_int()));
  std::printf("\n");

  // Failover drill: the fusion engine dies and recovers mid-stream — state
  // (last-reading table, fused average, calibration positions) is restored
  // from the replica and replay re-derives the rest.
  const auto fingerprint_before = rt.state_fingerprint(fusion);
  rt.crash_engine(EngineId(1));
  rt.recover_engine(EngineId(1));
  rt.drain();
  std::printf("failover drill: fusion state %s after crash+recover\n",
              rt.state_fingerprint(fusion) == fingerprint_before
                  ? "bit-identical"
                  : "DIVERGED (bug!)");
  std::printf("calibration served %llu calls\n",
              static_cast<unsigned long long>(
                  rt.metrics(calibration).calls_served));
  rt.stop();
  return 0;
}
