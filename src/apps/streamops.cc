#include "apps/streamops.h"

#include <limits>

namespace tart::apps {

// --- FilterOperator ---------------------------------------------------------

void FilterOperator::on_message(core::Context& ctx, PortId /*port*/,
                                const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t v = event_value(payload);
  if (v < min_ || v > max_) {
    dropped_.mutate([](std::int64_t& d) { ++d; });
    return;
  }
  ctx.send(PortId(0), payload);
}

void FilterOperator::capture_full(serde::Writer& w) const {
  dropped_.capture_full(w);
}
void FilterOperator::restore_full(serde::Reader& r) {
  dropped_.restore_full(r);
}

// --- MapOperator ---------------------------------------------------------------

void MapOperator::on_message(core::Context& ctx, PortId /*port*/,
                             const Payload& payload) {
  ctx.count_block(0);
  ctx.send(PortId(0),
           event(event_key(payload), scale_ * event_value(payload) + offset_));
}

// --- TumblingWindowSum -----------------------------------------------------------

void TumblingWindowSum::on_message(core::Context& ctx, PortId /*port*/,
                                   const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t key = event_key(payload);
  const std::int64_t value = event_value(payload);
  // Window assignment from deterministic virtual time (§II.B's timing
  // service): the same input at the same virtual time always lands in the
  // same window, in the original run and in every replay.
  const std::int64_t window = ctx.now().ticks() / width_;

  const std::int64_t* open = window_id_.find(key);
  if (open != nullptr && *open != window) {
    // Flush the closed window downstream.
    ctx.count_block(1);
    ctx.send(PortId(0), event(key, *window_sum_.find(key)));
    window_sum_.put(key, 0);
  }
  window_id_.put(key, window);
  window_sum_.update(key, [value](std::int64_t& s) { s += value; });
}

void TumblingWindowSum::capture_full(serde::Writer& w) const {
  window_id_.capture_full(w);
  window_sum_.capture_full(w);
}
void TumblingWindowSum::capture_delta(serde::Writer& w) {
  window_id_.capture_delta(w);
  window_sum_.capture_delta(w);
}
void TumblingWindowSum::restore_full(serde::Reader& r) {
  window_id_.restore_full(r);
  window_sum_.restore_full(r);
}
void TumblingWindowSum::apply_delta(serde::Reader& r) {
  window_id_.apply_delta(r);
  window_sum_.apply_delta(r);
}

// --- KeyedJoin ---------------------------------------------------------------------

void KeyedJoin::on_message(core::Context& ctx, PortId port,
                           const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t key = event_key(payload);
  const std::int64_t value = event_value(payload);
  auto& mine = port == PortId(0) ? left_ : right_;
  const auto& other = port == PortId(0) ? right_ : left_;
  mine.put(key, value);
  if (const std::int64_t* match = other.find(key)) {
    ctx.count_block(1);
    ctx.send(PortId(0), event(key, value + *match));
  }
}

void KeyedJoin::capture_full(serde::Writer& w) const {
  left_.capture_full(w);
  right_.capture_full(w);
}
void KeyedJoin::capture_delta(serde::Writer& w) {
  left_.capture_delta(w);
  right_.capture_delta(w);
}
void KeyedJoin::restore_full(serde::Reader& r) {
  left_.restore_full(r);
  right_.restore_full(r);
}
void KeyedJoin::apply_delta(serde::Reader& r) {
  left_.apply_delta(r);
  right_.apply_delta(r);
}

// --- DeduplicateOperator ----------------------------------------------------------

void DeduplicateOperator::on_message(core::Context& ctx, PortId /*port*/,
                                     const Payload& payload) {
  ctx.count_block(0);
  const std::string fingerprint = std::to_string(event_key(payload)) + ":" +
                                  std::to_string(event_value(payload));
  if (seen_.contains(fingerprint)) return;
  seen_.put(fingerprint, 1);
  ctx.send(PortId(0), payload);
}

void DeduplicateOperator::capture_full(serde::Writer& w) const {
  seen_.capture_full(w);
}
void DeduplicateOperator::capture_delta(serde::Writer& w) {
  seen_.capture_delta(w);
}
void DeduplicateOperator::restore_full(serde::Reader& r) {
  seen_.restore_full(r);
}
void DeduplicateOperator::apply_delta(serde::Reader& r) {
  seen_.apply_delta(r);
}

// --- KeyRouter -------------------------------------------------------------------

void KeyRouter::on_message(core::Context& ctx, PortId /*port*/,
                           const Payload& payload) {
  ctx.count_block(0);
  const auto port_index = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(event_key(payload)) % fanout_);
  ctx.send(PortId(port_index), payload);
}

// --- RunningMax -----------------------------------------------------------------

void RunningMax::on_message(core::Context& ctx, PortId /*port*/,
                            const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t v = event_value(payload);
  if (v > best_.get()) {
    best_.set(v);
    ctx.send(PortId(0), payload);
  }
}

void RunningMax::capture_full(serde::Writer& w) const {
  best_.capture_full(w);
}
void RunningMax::restore_full(serde::Reader& r) { best_.restore_full(r); }

}  // namespace tart::apps

namespace tart::apps {

// --- SlidingAverage ---------------------------------------------------------

void SlidingAverage::on_message(core::Context& ctx, PortId /*port*/,
                                const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t key = event_key(payload);
  const std::int64_t value = event_value(payload);
  recent_.update(key, [&](std::vector<std::int64_t>& ring) {
    ring.push_back(value);
    if (ring.size() > static_cast<std::size_t>(window_size_))
      ring.erase(ring.begin());
  });
  const auto& ring = *recent_.find(key);
  std::int64_t sum = 0;
  for (const auto v : ring) {
    ctx.count_block(1);
    sum += v;
  }
  ctx.send(PortId(0),
           event(key, sum / static_cast<std::int64_t>(ring.size())));
}

void SlidingAverage::capture_full(serde::Writer& w) const {
  recent_.capture_full(w);
}
void SlidingAverage::restore_full(serde::Reader& r) {
  recent_.restore_full(r);
}

// --- RateLimiter -------------------------------------------------------------

void RateLimiter::on_message(core::Context& ctx, PortId /*port*/,
                             const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t key = event_key(payload);
  // Fixed windows in deterministic virtual time.
  const std::int64_t window = ctx.now().ticks() / period_;
  const std::int64_t* start = window_start_.find(key);
  if (start == nullptr || *start != window) {
    window_start_.put(key, window);
    window_count_.put(key, 0);
  }
  const std::int64_t used = *window_count_.find(key);
  if (used >= burst_) {
    dropped_.mutate([](std::int64_t& d) { ++d; });
    return;
  }
  window_count_.put(key, used + 1);
  ctx.send(PortId(0), payload);
}

void RateLimiter::capture_full(serde::Writer& w) const {
  window_start_.capture_full(w);
  window_count_.capture_full(w);
  dropped_.capture_full(w);
}
void RateLimiter::restore_full(serde::Reader& r) {
  window_start_.restore_full(r);
  window_count_.restore_full(r);
  dropped_.restore_full(r);
}

// --- TopK ---------------------------------------------------------------------

void TopK::on_message(core::Context& ctx, PortId /*port*/,
                      const Payload& payload) {
  ctx.count_block(0);
  const std::int64_t key = event_key(payload);
  const std::int64_t value = event_value(payload);

  if (best_.contains(value)) return;  // identical value: no change
  if (best_.size() >= static_cast<std::size_t>(k_)) {
    const std::int64_t smallest = best_.sorted().front().first;
    if (value <= smallest) return;  // does not make the cut
    best_.erase(smallest);
  }
  best_.put(value, key);

  std::vector<std::int64_t> flat;
  const auto ranked = best_.sorted();
  for (auto it = ranked.rbegin(); it != ranked.rend(); ++it) {
    ctx.count_block(1);
    flat.push_back(it->second);  // key
    flat.push_back(it->first);   // value
  }
  ctx.send(PortId(0), Payload(std::move(flat)));
}

void TopK::capture_full(serde::Writer& w) const { best_.capture_full(w); }
void TopK::restore_full(serde::Reader& r) { best_.restore_full(r); }

}  // namespace tart::apps
