// Incrementally-checkpointable associative container.
//
// "For large structures like hash tables needing incremental checkpointing,
// updates since the last checkpoint are stored in an auxiliary structure"
// (§II.F.2). CheckpointedMap is that hash table: live entries sit in one
// std::unordered_map whose entries carry a dirty flag, and the auxiliary
// structure is a vector of the keys inserted, updated or erased since the
// last capture. The flag makes an update push its key at most once; an
// erase pushes its key too (its entry, and so its flag, is gone). A delta
// capture sorts and de-duplicates that vector, serializes the entries it
// names (erasures as tombstones) and empties it.
//
// Captures serialize in key order (std::less<K>): checkpoints of equal
// states are bit-identical whatever the insertion history, which the
// determinism property tests rely on, and the bytes are those of an
// ordered map (the format predates the hash table). Iteration is offered
// in key order only (sorted()): a restore rebuilds the table from key-
// ordered bytes, not from the original insertion history, so hash order
// after a restore can differ from hash order in the failure-free run, and
// a handler iterating in hash order would diverge on replay.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checkpoint/checkpointable.h"
#include "serde/archive.h"

namespace tart::checkpoint {

namespace detail {
// An order-preserving 64-bit summary of a key: a < b implies
// order_prefix(a) <= order_prefix(b). Sorting on it first leaves the full
// key comparison, which chases a pointer into the table, to ties only.
inline std::uint64_t order_prefix(std::int64_t key) {
  return static_cast<std::uint64_t>(key) ^ (std::uint64_t{1} << 63);
}
inline std::uint64_t order_prefix(const std::string& key) {
  std::uint64_t prefix = 0;  // the first 8 bytes, big-endian, zero-padded
  for (std::size_t i = 0; i < std::min<std::size_t>(key.size(), 8); ++i)
    prefix |= std::uint64_t{static_cast<unsigned char>(key[i])} << (56 - 8 * i);
  return prefix;
}
template <typename K>
std::uint64_t order_prefix(const K&) {
  return 0;  // every key ties: the full comparison decides
}
}  // namespace detail

template <typename K, typename V>
class CheckpointedMap final : public Checkpointable {
 public:
  /// Read access never dirties.
  [[nodiscard]] const V* find(const K& key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second.value;
  }
  [[nodiscard]] bool contains(const K& key) const { return map_.contains(key); }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] bool empty() const { return map_.empty(); }

  /// Every entry as (key, value) references in ascending key order — the
  /// only iteration the map offers (see the header comment). The
  /// references stay valid until the map is next modified.
  [[nodiscard]] std::vector<std::pair<const K&, const V&>> sorted() const {
    std::vector<std::pair<const K&, const V&>> out;
    out.reserve(map_.size());
    for (const Ranked& r : sorted_items())
      out.emplace_back(r.item->first, r.item->second.value);
    return out;
  }

  /// Inserts or overwrites, marking the key dirty.
  void put(const K& key, V value) {
    Entry& e = map_[key];
    e.value = std::move(value);
    mark(key, e);
  }

  /// In-place mutation through a callback, marking the key dirty. Creates a
  /// default-constructed value if absent.
  template <typename Fn>
  void update(const K& key, Fn&& fn) {
    Entry& e = map_[key];
    fn(e.value);
    mark(key, e);
  }

  /// Erases a key; records a tombstone so the delta propagates the erase.
  bool erase(const K& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      dirty_.push_back(key);
      note_possible_duplicate();
      return false;
    }
    drop(it);
    return true;
  }

  void clear() {
    while (!map_.empty()) drop(map_.begin());
  }

  /// Distinct keys changed since the last capture.
  [[nodiscard]] std::size_t dirty_count() const {
    std::vector<K> keys = dirty_;
    sort_unique(keys);
    return keys.size();
  }

  // Checkpointable:
  void capture_full(serde::Writer& w) const override {
    w.write_varint(map_.size());
    for (const Ranked& r : sorted_items()) {
      serde::encode_value(w, r.item->first);
      serde::encode_value(w, r.item->second.value);
    }
  }

  void capture_delta(serde::Writer& w) override {
    sort_unique(dirty_);
    w.write_varint(dirty_.size());
    for (const K& key : dirty_) {
      serde::encode_value(w, key);
      const auto it = map_.find(key);
      const bool present = it != map_.end();
      w.write_bool(present);
      if (present) {
        serde::encode_value(w, it->second.value);
        it->second.dirty = false;
      }
    }
    dirty_.clear();
    possible_duplicates_ = 0;
  }

  [[nodiscard]] bool supports_delta() const override { return true; }

  void restore_full(serde::Reader& r) override {
    map_.clear();
    dirty_.clear();
    possible_duplicates_ = 0;
    const auto n = r.read_varint();
    map_.reserve(std::min<std::uint64_t>(n, r.remaining()));
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      serde::decode_value(r, key);
      serde::decode_value(r, map_[std::move(key)].value);
    }
  }

  void apply_delta(serde::Reader& r) override {
    const auto n = r.read_varint();
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      serde::decode_value(r, key);
      if (r.read_bool()) {
        V value{};
        serde::decode_value(r, value);
        map_[std::move(key)].value = std::move(value);
      } else if (const auto it = map_.find(key); it != map_.end()) {
        if (it->second.dirty) note_possible_duplicate();
        map_.erase(it);
      }
    }
  }

 private:
  struct Entry {
    V value{};
    bool dirty = false;  // pushed to dirty_ since created or captured
  };
  using Table = std::unordered_map<K, Entry>;
  using Item = typename Table::value_type;

  static void sort_unique(std::vector<K>& keys) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }

  struct Ranked {
    std::uint64_t prefix;  // detail::order_prefix(item->first)
    const Item* item;
  };

  [[nodiscard]] std::vector<Ranked> sorted_items() const {
    std::vector<Ranked> items;
    items.reserve(map_.size());
    for (const Item& item : map_)
      items.push_back(Ranked{detail::order_prefix(item.first), &item});
    std::sort(items.begin(), items.end(), [](const Ranked& a, const Ranked& b) {
      if (a.prefix != b.prefix) return a.prefix < b.prefix;
      return std::less<K>()(a.item->first, b.item->first);
    });
    return items;
  }

  void mark(const K& key, Entry& e) {
    if (e.dirty) return;
    e.dirty = true;
    dirty_.push_back(key);
  }

  /// Removes an entry, leaving its key in dirty_ for the tombstone.
  void drop(typename Table::iterator it) {
    if (!it->second.dirty) dirty_.push_back(it->first);
    note_possible_duplicate();
    map_.erase(it);
  }

  /// A key is pushed at most once while its entry lives, so dirty_ can
  /// hold a key twice only after an erase: each duplicate follows its own
  /// erase, and counting erases bounds the duplicates. Folding them once
  /// they could be half the vector keeps it within twice the distinct
  /// dirty keys, as the set it replaces was; a map that never erases
  /// never folds.
  void note_possible_duplicate() {
    if (++possible_duplicates_ > dirty_.size() / 2 + 32) {
      sort_unique(dirty_);
      possible_duplicates_ = 0;
    }
  }

  Table map_;
  std::vector<K> dirty_;  // auxiliary structure: keys changed since capture
  std::size_t possible_duplicates_ = 0;  // erases since dirty_ was folded
};

}  // namespace tart::checkpoint
