// Stream-processing operator library.
//
// The paper motivates TART with component-oriented event/stream processing
// middleware ("mediation components, transformation components, and
// business logic components", §I.A): components that filter, transform,
// window-aggregate, join and deduplicate event streams while keeping
// state in ordinary variables. These operators are ordinary TART
// components — fully checkpointable, estimator-annotated (block counters),
// and deterministic, so entire analytics pipelines inherit transparent
// recovery.
//
// Event encoding: an event is a Payload holding a vector<int64> of the
// form [key, value]; operators that only need a scalar use value alone.
// Windowing uses *virtual* time (Context::now()) — the deterministic
// timing service of §II.B — so window assignment replays identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "checkpoint/checkpointed_map.h"
#include "checkpoint/checkpointed_value.h"
#include "core/component.h"

namespace tart::apps {

/// [key, value] event helpers.
[[nodiscard]] inline Payload event(std::int64_t key, std::int64_t value) {
  return Payload(std::vector<std::int64_t>{key, value});
}
[[nodiscard]] inline std::int64_t event_key(const Payload& p) {
  return p.as_ints()[0];
}
[[nodiscard]] inline std::int64_t event_value(const Payload& p) {
  return p.as_ints()[1];
}

/// Drops events whose value falls outside [min_value, max_value].
/// Stateless apart from a drop counter (checkpointed so metrics replay).
class FilterOperator : public core::Component {
 public:
  FilterOperator(std::int64_t min_value, std::int64_t max_value)
      : min_(min_value), max_(max_value) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void restore_full(serde::Reader& r) override;

  [[nodiscard]] std::int64_t dropped() const { return dropped_.get(); }

 private:
  std::int64_t min_;
  std::int64_t max_;
  checkpoint::CheckpointedValue<std::int64_t> dropped_{0};
};

/// Affine transform on the value: value' = scale * value + offset.
class MapOperator : public core::Component {
 public:
  MapOperator(std::int64_t scale, std::int64_t offset)
      : scale_(scale), offset_(offset) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }

 private:
  std::int64_t scale_;
  std::int64_t offset_;
};

/// Per-key tumbling-window sum over *virtual* time. An event landing in a
/// newer window than the one currently open for its key flushes the old
/// aggregate downstream as [key, sum] and opens the new window. Because
/// windows are assigned from deterministic virtual time, replay reproduces
/// identical window contents — the property a wall-clock-windowed system
/// cannot offer.
class TumblingWindowSum : public core::Component {
 public:
  explicit TumblingWindowSum(TickDuration width) : width_(width.ticks()) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void capture_delta(serde::Writer& w) override;
  void full_captured() override {
    window_id_.full_captured();
    window_sum_.full_captured();
  }
  [[nodiscard]] bool supports_delta() const override { return true; }
  void restore_full(serde::Reader& r) override;
  void apply_delta(serde::Reader& r) override;

 private:
  struct Window {
    std::int64_t id = -1;
    std::int64_t sum = 0;
  };
  friend void encode_window(serde::Writer&, const Window&);

  std::int64_t width_;
  // key -> open window (id, partial sum), encoded as two parallel maps to
  // reuse the incremental container.
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> window_id_;
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> window_sum_;
};

/// Keyed inner join of two streams. Port 0 and port 1 each carry [key,
/// value] events; the latest value per key per side is retained, and a
/// match emits [key, left_value + right_value] (a symbolic combine —
/// enough to observe join correctness deterministically).
class KeyedJoin : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void capture_delta(serde::Writer& w) override;
  void full_captured() override {
    left_.full_captured();
    right_.full_captured();
  }
  [[nodiscard]] bool supports_delta() const override { return true; }
  void restore_full(serde::Reader& r) override;
  void apply_delta(serde::Reader& r) override;

 private:
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> left_;
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> right_;
};

/// Drops events whose (key, value) pair was already seen. The seen-set is
/// the component's state — after failover it must replay to exactly the
/// same contents or the output stream would change.
class DeduplicateOperator : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void capture_delta(serde::Writer& w) override;
  void full_captured() override { seen_.full_captured(); }
  [[nodiscard]] bool supports_delta() const override { return true; }
  void restore_full(serde::Reader& r) override;
  void apply_delta(serde::Reader& r) override;

 private:
  checkpoint::CheckpointedMap<std::string, std::int64_t> seen_;
};

/// Routes each event to output port (key mod fanout) — a deterministic
/// partitioner for scale-out stages.
class KeyRouter : public core::Component {
 public:
  explicit KeyRouter(std::uint32_t fanout) : fanout_(fanout) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;
  void capture_full(serde::Writer& w) const override { w.write_u8(0); }
  void restore_full(serde::Reader& r) override { (void)r.read_u8(); }

 private:
  std::uint32_t fanout_;
};

/// Running top-1 tracker: emits [key, value] whenever a new maximum value
/// is observed (monotonic output — the paper's example of output where
/// stutter is trivially compensated).
class RunningMax : public core::Component {
 public:
  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void restore_full(serde::Reader& r) override;

 private:
  checkpoint::CheckpointedValue<std::int64_t> best_{
      std::numeric_limits<std::int64_t>::min()};
};

}  // namespace tart::apps

namespace tart::apps {

/// Sliding average over the last `window_size` values per key (count-based
/// window; the state is the ring of recent values, fully checkpointed).
/// Emits [key, average] on every input.
class SlidingAverage : public core::Component {
 public:
  explicit SlidingAverage(int window_size) : window_size_(window_size) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void restore_full(serde::Reader& r) override;

 private:
  int window_size_;
  // key -> most recent values, oldest first (bounded by window_size_).
  checkpoint::CheckpointedMap<std::int64_t, std::vector<std::int64_t>>
      recent_;
};

/// Virtual-time token-bucket rate limiter: at most `burst` events per key
/// per `period` of VIRTUAL time pass through; the rest are dropped (and
/// counted). Deterministic — replay drops exactly the same events, which
/// a wall-clock limiter cannot promise.
class RateLimiter : public core::Component {
 public:
  RateLimiter(TickDuration period, int burst)
      : period_(period.ticks()), burst_(burst) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void restore_full(serde::Reader& r) override;

  [[nodiscard]] std::int64_t dropped() const { return dropped_.get(); }

 private:
  std::int64_t period_;
  int burst_;
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> window_start_;
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> window_count_;
  checkpoint::CheckpointedValue<std::int64_t> dropped_{0};
};

/// Tracks the K largest values seen (by value, ties by key) and emits the
/// full top-K list whenever it changes, as alternating [key, value] pairs.
class TopK : public core::Component {
 public:
  explicit TopK(int k) : k_(k) {}

  void on_message(core::Context& ctx, PortId port,
                  const Payload& payload) override;

  void capture_full(serde::Writer& w) const override;
  void restore_full(serde::Reader& r) override;

 private:
  int k_;
  // value -> key, largest values last; bounded to k_ entries.
  checkpoint::CheckpointedMap<std::int64_t, std::int64_t> best_;
};

}  // namespace tart::apps
