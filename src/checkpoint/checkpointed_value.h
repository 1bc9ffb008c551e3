// Scalar state with change tracking — the checkpointed analogue of an
// "ordinary instance variable".
#pragma once

#include <utility>

#include "checkpoint/checkpointable.h"

namespace tart::checkpoint {

template <typename T>
class CheckpointedValue final : public Checkpointable {
 public:
  CheckpointedValue() = default;
  explicit CheckpointedValue(T initial) : value_(std::move(initial)) {}

  [[nodiscard]] const T& get() const { return value_; }

  void set(T value) {
    value_ = std::move(value);
    dirty_ = true;
  }

  /// Mutate through a callback; marks dirty.
  template <typename Fn>
  void mutate(Fn&& fn) {
    fn(value_);
    dirty_ = true;
  }

  [[nodiscard]] bool dirty() const { return dirty_; }

  void capture_full(serde::Writer& w) const override {
    serde::encode_value(w, value_);
  }

  void capture_delta(serde::Writer& w) override {
    w.write_bool(dirty_);
    if (dirty_) serde::encode_value(w, value_);
    dirty_ = false;
  }

  void full_captured() override { dirty_ = false; }

  [[nodiscard]] bool supports_delta() const override { return true; }

  void restore_full(serde::Reader& r) override {
    serde::decode_value(r, value_);
    dirty_ = false;
  }

  void apply_delta(serde::Reader& r) override {
    if (r.read_bool()) serde::decode_value(r, value_);
  }

 private:
  T value_{};
  bool dirty_ = false;
};

/// Groups several Checkpointable members so a component can delegate its
/// capture/restore to one call. Order of registration defines the layout;
/// it must be identical on capture and restore (static structure, matching
/// the paper's static-wiring assumption).
class CheckpointGroup final : public Checkpointable {
 public:
  void add(Checkpointable& member) { members_.push_back(&member); }

  void capture_full(serde::Writer& w) const override {
    for (const auto* m : members_) m->capture_full(w);
  }
  void capture_delta(serde::Writer& w) override {
    for (auto* m : members_) m->capture_delta(w);
  }
  void full_captured() override {
    for (auto* m : members_) m->full_captured();
  }
  [[nodiscard]] bool supports_delta() const override {
    for (const auto* m : members_)
      if (!m->supports_delta()) return false;
    return true;
  }
  void restore_full(serde::Reader& r) override {
    for (auto* m : members_) m->restore_full(r);
  }
  void apply_delta(serde::Reader& r) override {
    for (auto* m : members_) m->apply_delta(r);
  }

 private:
  std::vector<Checkpointable*> members_;
};

}  // namespace tart::checkpoint
