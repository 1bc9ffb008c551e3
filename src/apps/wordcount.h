// The paper's running application (Figure 1 / Code Body 1): word-count
// sender components fanning into a totaling merger, plus small call-based
// service components. These are the reference components used by the
// examples, the integration tests, and the benchmark harnesses.
#pragma once

#include <string>
#include <vector>

#include "checkpoint/checkpointed_map.h"
#include "checkpoint/checkpointed_value.h"
#include "core/component.h"

namespace tart::apps {

/// Code Body 1: counts word occurrences in ordinary state ("State need not
/// be stored in special objects"), replying with the total prior count of
/// this sentence's words. Basic block 0 counts loop iterations (xi_1 of
/// Equation 1); an estimator of the form tau = beta1 * xi_1 fits it.
class WordCountSender : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  /// The loop bound (sentence length) is knowable before execution — the
  /// basis of the paper's "Prescient" mode.
  [[nodiscard]] std::optional<estimator::BlockCounters> prescient_counters(
      PortId port, const Payload& payload) const override;

  void capture_full(serde::Writer& w) const override { map_.capture_full(w); }
  void capture_delta(serde::Writer& w) override { map_.capture_delta(w); }
  void full_captured() override { map_.full_captured(); }
  [[nodiscard]] bool supports_delta() const override { return true; }
  void restore_full(serde::Reader& r) override { map_.restore_full(r); }
  void apply_delta(serde::Reader& r) override { map_.apply_delta(r); }

  [[nodiscard]] std::size_t vocabulary_size() const { return map_.size(); }

 private:
  checkpoint::CheckpointedMap<std::string, std::int64_t> map_;
};

/// Figure 1's Merger: accumulates incoming counts, emitting running totals.
class TotalingMerger : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override {
    total_.capture_full(w);
  }
  void capture_delta(serde::Writer& w) override { total_.capture_delta(w); }
  void full_captured() override { total_.full_captured(); }
  [[nodiscard]] bool supports_delta() const override { return true; }
  void restore_full(serde::Reader& r) override { total_.restore_full(r); }
  void apply_delta(serde::Reader& r) override { total_.apply_delta(r); }

  [[nodiscard]] std::int64_t total() const { return total_.get(); }

 private:
  checkpoint::CheckpointedValue<std::int64_t> total_{0};
};

/// Two-way service: multiplies the request by its running call count.
class ScalingService : public core::Component {
 public:
  void on_message(core::Context&, PortId, const Payload&) override;
  Payload on_call(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override {
    calls_.capture_full(w);
  }
  void restore_full(serde::Reader& r) override { calls_.restore_full(r); }

 private:
  checkpoint::CheckpointedValue<std::int64_t> calls_{0};
};

/// Forwards each input through a two-way call before emitting the reply.
class CallingComponent : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

/// Stateless passthrough.
class Passthrough : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }
};

/// Takes a constant real service time then forwards its payload — the
/// "constant-time service" shape of the paper's distributed experiment
/// (Figure 5). The matching estimator is a ConstantEstimator of the same
/// duration (the paper's "ad-hoc estimators"). `spin` selects busy-waiting
/// (real CPU cost) versus sleeping (service latency without monopolizing
/// the CPU — preferable when benchmarking on fewer cores than components).
class SpinService : public core::Component {
 public:
  explicit SpinService(std::int64_t service_ns, bool spin = true)
      : service_ns_(service_ns), spin_(spin) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }

 private:
  std::int64_t service_ns_;
  bool spin_;
};

/// Builds a sentence payload.
[[nodiscard]] Payload sentence(std::initializer_list<const char*> words);
[[nodiscard]] Payload sentence(const std::vector<std::string>& words);

}  // namespace tart::apps
