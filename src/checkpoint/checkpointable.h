// State-capture interface that components implement.
//
// Per the paper (§II.F.2) component code is augmented so that "a method is
// provided to gather all full checkpoint state and all incremental changes
// and to return them to the scheduler". In this C++ reproduction the
// augmentation is manual: a component implements capture/restore directly,
// typically by delegating to checkpointed containers (CheckpointedMap,
// CheckpointedValue) for the incremental part.
#pragma once

#include "serde/archive.h"

namespace tart::checkpoint {

class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// Serializes the complete state.
  virtual void capture_full(serde::Writer& w) const = 0;

  /// Serializes only changes since the previous capture (full or delta) and
  /// resets the change tracking. Default: full capture (always correct,
  /// never smaller).
  virtual void capture_delta(serde::Writer& w) { capture_full(w); }

  /// A full capture became a checkpoint: resets the change tracking, so
  /// the next delta holds only later changes. capture_full stays const
  /// (state fingerprints take full captures too). Default: nothing tracked.
  virtual void full_captured() {}

  /// True when the implementation produces genuine deltas; lets the
  /// checkpoint scheduler decide between full and incremental cycles.
  [[nodiscard]] virtual bool supports_delta() const { return false; }

  /// Restores from a full capture.
  virtual void restore_full(serde::Reader& r) = 0;

  /// Applies a delta on top of the current state. Default: treat the bytes
  /// as a full capture (matches the capture_delta default).
  virtual void apply_delta(serde::Reader& r) { restore_full(r); }
};

}  // namespace tart::checkpoint
