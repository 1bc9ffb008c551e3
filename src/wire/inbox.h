// Receiver-side pessimistic merge across input wires.
//
// This implements the core scheduling rule of the paper (§II.E): a receiving
// component processes messages in strict virtual-time order, tie-broken by
// wire id (footnote 2). An earliest pending message with virtual time t may
// be dequeued only once every *other* input wire is known to carry no
// message that would have to be processed first — i.e. each other wire
// either has a pending head that orders after (t, wire), or has promised
// silence far enough:
//
//   - silent through >= t, or
//   - silent through >= t-1 when the other wire's id orders after ours
//     (any future message on it has vt >= t, and at vt == t the tie-break
//     favours us).
//
// Per-wire tick accounting (§II.F.1): every tick on a wire is either a data
// tick or a silent tick. FIFO delivery plus nondecreasing per-wire virtual
// times mean a message at vt t implicitly promises silence for all earlier
// unaccounted ticks — this is "lazy silence propagation". Explicit silence
// announcements (curiosity replies, aggressive pushes) advance the horizon
// without data.
//
// The time a dequeue-ready head spends blocked on other wires' horizons is
// pessimism delay — the principal overhead of determinism; the inbox
// exposes the lagging wires so silence-propagation strategies (curiosity
// probes) can chase them.
//
// Duplicate suppression (§II.F.4): after replay, "duplicate messages will
// have duplicate timestamps and will be discarded" — any arrival whose vt
// is not beyond the wire's accounted horizon is dropped as a duplicate.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/virtual_time.h"
#include "wire/message.h"

namespace tart::trace {
class TraceRecorder;
}

namespace tart {

/// Outcome of offering an arriving message to the inbox.
enum class AcceptResult {
  kAccepted,
  kDuplicate,  ///< vt already accounted on this wire; dropped.
  kGap,        ///< seq jumped: preceding ticks lost; replay needed.
};

class Inbox {
 public:
  /// Registers an input wire. All wires must be added before scheduling
  /// starts (static wiring per §II.B).
  void add_wire(WireId wire);

  /// Declares that `wire`'s sender follows the hyper-aggressive bias
  /// discipline (§II.G.1): data may only occupy ticks that are multiples of
  /// `window`. All other ticks are silent *by construction*, so the
  /// receiver infers silence up to the next boundary without any
  /// communication — the receiver-side half of the "bias algorithm" [11].
  /// Part of the deterministic configuration (changing it at runtime would
  /// be a determinism fault).
  void set_data_grid(WireId wire, std::int64_t window);

  [[nodiscard]] bool has_wire(WireId wire) const;
  [[nodiscard]] std::size_t wire_count() const { return wires_.size(); }

  /// Attaches the flight recorder (§II.F.4 evidence: duplicate discards
  /// and gap detections are recorded at the point of classification).
  /// `self` is the receiving component. Null detaches; costs one branch
  /// per rejection when detached.
  void set_trace(trace::TraceRecorder* recorder, ComponentId self) {
    trace_ = recorder;
    trace_self_ = self;
  }

  /// Offers an arriving message. FIFO per wire; the message's vt implicitly
  /// accounts all earlier ticks on that wire as silent. The rvalue form
  /// moves an accepted message in; a rejected one is left untouched.
  AcceptResult offer(const Message& m);
  AcceptResult offer(Message&& m);

  /// Explicit silence announcement: `wire` has no data through `through`.
  /// Monotonic; stale announcements are ignored. When `expected_seq` is
  /// nonzero it is the sender's count of data messages at or before
  /// `through`; returns true if this inbox has seen fewer (ticks were lost
  /// and must be replayed from next_seq()). The horizon is only advanced
  /// when no gap is detected — a lost data tick is not silent.
  bool announce_silence(WireId wire, VirtualTime through,
                        std::uint64_t expected_seq = 0);

  /// The head that must be processed next in (vt, wire) order, if any
  /// message is pending at all (regardless of eligibility).
  [[nodiscard]] std::optional<Message> peek() const;

  /// The head's virtual time, without copying the message.
  [[nodiscard]] std::optional<VirtualTime> head_vt() const;

  /// True when the next head (per peek) is eligible for dequeue under the
  /// pessimistic rule.
  [[nodiscard]] bool head_eligible() const;

  /// Pops the next message if eligible, moving it out; nullopt otherwise.
  [[nodiscard]] std::optional<Message> pop();

  /// Wires whose silence horizon blocks the current head (targets for
  /// curiosity probes). Empty when no head or head is eligible.
  [[nodiscard]] std::vector<WireId> lagging_wires() const;

  /// Greatest vt through which *all* wires are accounted; the component can
  /// never again receive a message at or before this time. Used for idle
  /// detection and downstream silence generation.
  [[nodiscard]] VirtualTime accounted_through() const;

  /// Horizon of one wire (ticks <= horizon are accounted).
  [[nodiscard]] VirtualTime wire_horizon(WireId wire) const;

  /// Number of messages pending across all wires.
  [[nodiscard]] std::size_t pending() const;

  /// Messages pending on one wire (stall introspection).
  [[nodiscard]] std::size_t pending_on(WireId wire) const;

  /// True when every wire is closed (horizon == +inf) and nothing pending.
  [[nodiscard]] bool exhausted() const;

  /// Next expected sequence number for a wire (for replay requests).
  [[nodiscard]] std::uint64_t next_seq(WireId wire) const;

  /// Restores a wire's position after checkpoint recovery: messages with
  /// vt <= `through` (or seq < `seq`) will be treated as duplicates.
  void restore_position(WireId wire, VirtualTime through, std::uint64_t seq);

 private:
  struct WireState {
    std::deque<Message> pending;  // nondecreasing vt, increasing seq
    VirtualTime horizon = VirtualTime(-1);  // all ticks <= horizon accounted
    std::uint64_t next_seq = 0;
    std::int64_t grid = 0;  // bias window: data only at multiples (0 = off)
    bool closed() const { return horizon.is_infinite(); }

    /// Horizon including grid-implied silence: ticks strictly between the
    /// explicit horizon and the next grid boundary cannot carry data.
    [[nodiscard]] VirtualTime effective_horizon() const {
      if (grid <= 0 || horizon.is_infinite() || horizon.ticks() < 0)
        return horizon;
      const std::int64_t next_boundary =
          (horizon.ticks() / grid + 1) * grid;
      return VirtualTime(next_boundary - 1);
    }
  };

  /// Is head (t, id) allowed to run given wire w's state?
  [[nodiscard]] static bool permits(const WireState& w, WireId other_id,
                                    VirtualTime t, WireId id);

  [[nodiscard]] const WireState* find(WireId wire) const;

  /// The wire holding the head (smallest (vt, wire) key among pending
  /// fronts); wires_.end() when nothing is pending. The one lookup behind
  /// peek, head_vt, head_eligible, pop and lagging_wires.
  [[nodiscard]] std::map<WireId, WireState>::const_iterator head() const;
  /// Whether every other wire permits the head on `h` to run.
  [[nodiscard]] bool eligible(
      std::map<WireId, WireState>::const_iterator h) const;
  /// Duplicate/gap classification shared by both offer overloads; on
  /// kAccepted the wire's seq and horizon already cover `m`.
  AcceptResult classify(WireState& w, const Message& m);

  /// Cold out-of-line record paths (see inbox.cc).
  void trace_discard(const Message& m) const;
  void trace_gap(const Message& m) const;

  std::map<WireId, WireState> wires_;
  trace::TraceRecorder* trace_ = nullptr;
  ComponentId trace_self_;
};

}  // namespace tart
