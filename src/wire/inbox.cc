#include "wire/inbox.h"

#include <cassert>

#include "trace/recorder.h"

namespace tart {

void Inbox::add_wire(WireId wire) {
  assert(wire.is_valid());
  wires_.emplace(wire, WireState{});
}

void Inbox::set_data_grid(WireId wire, std::int64_t window) {
  auto it = wires_.find(wire);
  assert(it != wires_.end());
  it->second.grid = window;
}

bool Inbox::has_wire(WireId wire) const { return wires_.contains(wire); }

const Inbox::WireState* Inbox::find(WireId wire) const {
  const auto it = wires_.find(wire);
  return it == wires_.end() ? nullptr : &it->second;
}

// Out of line and cold: offer() is the hottest function in the merge and
// inlining the hash/record machinery into its rejection branches costs
// the accept path real cycles (bigger frame, more callee saves) even
// when tracing is off.
__attribute__((cold, noinline)) void Inbox::trace_discard(
    const Message& m) const {
  trace_->record(trace_self_, trace::TraceEventKind::kDuplicateDiscard, m.vt,
                 m.wire, m.seq, trace::hash_of(m.payload));
}

__attribute__((cold, noinline)) void Inbox::trace_gap(
    const Message& m) const {
  trace_->record(trace_self_, trace::TraceEventKind::kGap, m.vt, m.wire,
                 m.seq);
}

AcceptResult Inbox::classify(WireState& w, const Message& m) {
  // Duplicate: vt already accounted (silent or delivered/pending data).
  // Replayed messages re-arrive with their original (identical) timestamps
  // and are discarded here.
  if (m.vt <= w.horizon) {
    if (trace_ != nullptr) trace_discard(m);
    return AcceptResult::kDuplicate;
  }

  // Gap: FIFO sequence jumped, meaning ticks were lost on the physical
  // link or the sender restarted ahead of us. Caller must request replay.
  if (m.seq > w.next_seq) {
    if (trace_ != nullptr) trace_gap(m);
    return AcceptResult::kGap;
  }
  if (m.seq < w.next_seq) {
    if (trace_ != nullptr) trace_discard(m);
    return AcceptResult::kDuplicate;
  }

  w.next_seq = m.seq + 1;
  // The message's vt accounts all earlier ticks as (implied) silence and
  // its own tick as data.
  w.horizon = m.vt;
  return AcceptResult::kAccepted;
}

AcceptResult Inbox::offer(const Message& m) {
  auto it = wires_.find(m.wire);
  assert(it != wires_.end() && "message for unregistered wire");
  const AcceptResult result = classify(it->second, m);
  if (result == AcceptResult::kAccepted) it->second.pending.push_back(m);
  return result;
}

AcceptResult Inbox::offer(Message&& m) {
  auto it = wires_.find(m.wire);
  assert(it != wires_.end() && "message for unregistered wire");
  const AcceptResult result = classify(it->second, m);
  if (result == AcceptResult::kAccepted)
    it->second.pending.push_back(std::move(m));
  return result;
}

bool Inbox::announce_silence(WireId wire, VirtualTime through,
                             std::uint64_t expected_seq) {
  auto it = wires_.find(wire);
  assert(it != wires_.end());
  WireState& w = it->second;
  if (expected_seq > w.next_seq) {
    // The sender accounted data ticks we never received: they were lost
    // (e.g. dropped while this engine was down). Do not mark them silent;
    // the caller must request replay from next_seq.
    return true;
  }
  if (through > w.horizon) w.horizon = through;
  return false;
}

std::map<WireId, Inbox::WireState>::const_iterator Inbox::head() const {
  auto best = wires_.end();
  for (auto it = wires_.begin(); it != wires_.end(); ++it) {
    if (it->second.pending.empty()) continue;
    // Wires iterate in id order, so a strictly smaller vt is the only way
    // a later wire's front can order first.
    if (best == wires_.end() ||
        it->second.pending.front().vt < best->second.pending.front().vt)
      best = it;
  }
  return best;
}

std::optional<Message> Inbox::peek() const {
  const auto h = head();
  if (h == wires_.end()) return std::nullopt;
  return h->second.pending.front();
}

std::optional<VirtualTime> Inbox::head_vt() const {
  const auto h = head();
  if (h == wires_.end()) return std::nullopt;
  return h->second.pending.front().vt;
}

bool Inbox::permits(const WireState& w, WireId other_id, VirtualTime t,
                    WireId id) {
  if (!w.pending.empty()) {
    // A pending head on the other wire must order after (t, id).
    return std::pair{t, id} < w.pending.front().key();
  }
  const VirtualTime h = w.effective_horizon();
  if (h >= t) return true;
  // Horizon t-1 suffices when the other wire loses the vt==t tie-break:
  // any future message on it has vt > horizon >= t-1, i.e. vt >= t, and at
  // vt == t our smaller wire id wins.
  return h >= t.prev() && other_id > id;
}

bool Inbox::eligible(std::map<WireId, WireState>::const_iterator h) const {
  const VirtualTime t = h->second.pending.front().vt;
  for (auto it = wires_.begin(); it != wires_.end(); ++it) {
    if (it == h) continue;
    if (!permits(it->second, it->first, t, h->first)) return false;
  }
  return true;
}

bool Inbox::head_eligible() const {
  const auto h = head();
  return h != wires_.end() && eligible(h);
}

std::optional<Message> Inbox::pop() {
  const auto h = head();
  if (h == wires_.end() || !eligible(h)) return std::nullopt;
  // erase(h, h) removes nothing; it is the standard const_iterator ->
  // iterator conversion, sparing a second lookup.
  auto& pending = wires_.erase(h, h)->second.pending;
  Message m = std::move(pending.front());
  pending.pop_front();
  return m;
}

std::vector<WireId> Inbox::lagging_wires() const {
  std::vector<WireId> out;
  const auto h = head();
  if (h == wires_.end()) return out;
  const VirtualTime t = h->second.pending.front().vt;
  for (auto it = wires_.begin(); it != wires_.end(); ++it) {
    if (it == h) continue;
    if (!permits(it->second, it->first, t, h->first)) out.push_back(it->first);
  }
  return out;
}

VirtualTime Inbox::accounted_through() const {
  VirtualTime lo = VirtualTime::infinity();
  for (const auto& [id, w] : wires_) lo = min(lo, w.effective_horizon());
  return lo;
}

VirtualTime Inbox::wire_horizon(WireId wire) const {
  const WireState* w = find(wire);
  assert(w != nullptr);
  return w->horizon;
}

std::size_t Inbox::pending() const {
  std::size_t n = 0;
  for (const auto& [id, w] : wires_) n += w.pending.size();
  return n;
}

std::size_t Inbox::pending_on(WireId wire) const {
  const WireState* w = find(wire);
  return w == nullptr ? 0 : w->pending.size();
}

bool Inbox::exhausted() const {
  for (const auto& [id, w] : wires_)
    if (!w.closed() || !w.pending.empty()) return false;
  return true;
}

std::uint64_t Inbox::next_seq(WireId wire) const {
  const WireState* w = find(wire);
  assert(w != nullptr);
  return w->next_seq;
}

void Inbox::restore_position(WireId wire, VirtualTime through,
                             std::uint64_t seq) {
  auto it = wires_.find(wire);
  assert(it != wires_.end());
  WireState& w = it->second;
  w.pending.clear();
  w.horizon = through;
  w.next_seq = seq;
}

}  // namespace tart
