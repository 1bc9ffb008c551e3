// Tests for checkpointed containers, snapshots, and the passive replica:
// full-vs-incremental equivalence is the core invariant (§II.F.2).
#include <gtest/gtest.h>

#include "checkpoint/checkpointed_map.h"
#include "checkpoint/checkpointed_value.h"
#include "checkpoint/replica.h"
#include "checkpoint/snapshot.h"
#include "common/rng.h"

namespace tart::checkpoint {
namespace {

using WordCounts = CheckpointedMap<std::string, std::int64_t>;

std::vector<std::byte> capture_full_bytes(const Checkpointable& c) {
  serde::Writer w;
  c.capture_full(w);
  return w.take();
}

// --- CheckpointedMap ----------------------------------------------------------

TEST(CheckpointedMapTest, BasicOperations) {
  WordCounts m;
  EXPECT_TRUE(m.empty());
  m.put("the", 1);
  m.update("the", [](std::int64_t& v) { ++v; });
  EXPECT_EQ(*m.find("the"), 2);
  EXPECT_FALSE(m.contains("cat"));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.erase("the"));
  EXPECT_FALSE(m.erase("the"));
  EXPECT_TRUE(m.empty());
}

TEST(CheckpointedMapTest, FullCaptureRoundTrip) {
  WordCounts m;
  m.put("a", 1);
  m.put("b", 2);
  WordCounts restored;
  serde::Writer w;
  m.capture_full(w);
  serde::Reader r(w.bytes());
  restored.restore_full(r);
  EXPECT_EQ(restored.sorted(), m.sorted());
}

TEST(CheckpointedMapTest, DeltaTracksOnlyChanges) {
  WordCounts m;
  m.put("a", 1);
  m.put("b", 2);
  serde::Writer base;
  m.capture_delta(base);  // drains dirty set
  EXPECT_EQ(m.dirty_count(), 0u);

  m.put("c", 3);
  m.update("a", [](std::int64_t& v) { v = 10; });
  EXPECT_EQ(m.dirty_count(), 2u);
  serde::Writer delta;
  m.capture_delta(delta);
  // Delta contains 2 entries, not 3.
  serde::Reader peek(delta.bytes());
  EXPECT_EQ(peek.read_varint(), 2u);
}

TEST(CheckpointedMapTest, BasePlusDeltaEqualsFull) {
  Rng rng(5);
  WordCounts live;
  WordCounts replica;

  // Base.
  for (int i = 0; i < 50; ++i)
    live.put("k" + std::to_string(i), rng.uniform_int(0, 100));
  {
    serde::Writer w;
    live.capture_delta(w);
    serde::Reader r(w.bytes());
    replica.apply_delta(r);
  }
  // Random mutations + deltas, repeatedly.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 20; ++i) {
      const std::string key = "k" + std::to_string(rng.uniform_int(0, 70));
      if (rng.chance(0.3)) {
        live.erase(key);
      } else {
        live.put(key, rng.uniform_int(0, 1000));
      }
    }
    serde::Writer w;
    live.capture_delta(w);
    serde::Reader r(w.bytes());
    replica.apply_delta(r);
    EXPECT_EQ(capture_full_bytes(replica), capture_full_bytes(live))
        << "diverged at round " << round;
  }
}

TEST(CheckpointedMapTest, TombstonePropagatesErase) {
  WordCounts live, replica;
  live.put("gone", 1);
  {
    serde::Writer w;
    live.capture_delta(w);
    serde::Reader r(w.bytes());
    replica.apply_delta(r);
  }
  live.erase("gone");
  {
    serde::Writer w;
    live.capture_delta(w);
    serde::Reader r(w.bytes());
    replica.apply_delta(r);
  }
  EXPECT_FALSE(replica.contains("gone"));
}

TEST(CheckpointedMapTest, ClearDirtiesEverything) {
  WordCounts m;
  m.put("a", 1);
  m.put("b", 2);
  serde::Writer w;
  m.capture_delta(w);
  m.clear();
  EXPECT_EQ(m.dirty_count(), 2u);
}

TEST(CheckpointedMapTest, DeterministicByteIdenticalCaptures) {
  // Same logical state reached by different operation orders must
  // checkpoint to identical bytes.
  WordCounts a, b;
  a.put("x", 1);
  a.put("y", 2);
  b.put("y", 2);
  b.put("x", 1);
  EXPECT_EQ(capture_full_bytes(a), capture_full_bytes(b));
}

TEST(CheckpointedMapTest, SupportsDelta) {
  EXPECT_TRUE(WordCounts().supports_delta());
}

std::vector<std::byte> hex_bytes(const std::string& hex) {
  std::vector<std::byte> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 3)
    out.push_back(
        static_cast<std::byte>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  return out;
}

// The bytes an ordered std::map encoding produced before the map became a
// hash table: durable checkpoint files written then must still restore.
TEST(CheckpointedMapTest, GoldenBytesMatchTheOrderedEncoding) {
  WordCounts m;
  m.put("pear", 3);
  m.put("apple", 1);
  m.put("fig", -2);
  EXPECT_EQ(capture_full_bytes(m),
            hex_bytes("03 05 61 70 70 6c 65 02 03 66 69 67 03 04 70 65 61 72 "
                      "06"));
  serde::Writer base;
  m.capture_delta(base);
  EXPECT_EQ(base.bytes(),
            hex_bytes("03 05 61 70 70 6c 65 01 02 03 66 69 67 01 03 04 70 65 "
                      "61 72 01 06"));

  // An update, an erase, an erase of a key never present, and an erase
  // followed by a re-insert: each key appears once, in key order.
  m.update("apple", [](std::int64_t& v) { v += 10; });
  m.erase("fig");
  m.erase("kiwi");
  m.erase("pear");
  m.put("pear", 7);
  m.put("banana", 5);
  serde::Writer delta;
  m.capture_delta(delta);
  EXPECT_EQ(delta.bytes(),
            hex_bytes("05 05 61 70 70 6c 65 01 16 06 62 61 6e 61 6e 61 01 0a "
                      "03 66 69 67 00 04 6b 69 77 69 00 04 70 65 61 72 01 0e"));
  EXPECT_EQ(capture_full_bytes(m),
            hex_bytes("03 05 61 70 70 6c 65 16 06 62 61 6e 61 6e 61 0a 04 70 "
                      "65 61 72 0e"));

  CheckpointedMap<std::int64_t, std::int64_t> ints;
  ints.put(300, 1);
  ints.put(-5, 2);
  ints.put(70, 3);
  serde::Writer discard;
  ints.capture_delta(discard);
  ints.erase(70);
  ints.put(-5, 9);
  ints.erase(12);
  serde::Writer int_delta;
  ints.capture_delta(int_delta);
  EXPECT_EQ(int_delta.bytes(), hex_bytes("03 09 01 12 18 00 8c 01 00"));
  EXPECT_EQ(capture_full_bytes(ints), hex_bytes("02 09 12 d8 04 02"));
}

TEST(CheckpointedMapTest, InsertionOrderShowsInNeitherCapturesNorIteration) {
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i)
    keys.push_back("w" + std::to_string(i * 7919 % 1000));
  std::vector<std::string> reversed(keys.rbegin(), keys.rend());
  WordCounts a, b;
  for (const auto& k : keys) a.update(k, [](std::int64_t& v) { ++v; });
  for (const auto& k : reversed) b.update(k, [](std::int64_t& v) { ++v; });
  for (int i = 0; i < 300; i += 3) {
    a.erase(keys[i]);
    b.erase(keys[297 - i]);  // the same keys, in the other order
  }
  EXPECT_EQ(a.sorted(), b.sorted());
  EXPECT_EQ(capture_full_bytes(a), capture_full_bytes(b));
  serde::Writer da, db;
  a.capture_delta(da);
  b.capture_delta(db);
  EXPECT_EQ(da.bytes(), db.bytes());

  const auto items = a.sorted();
  for (std::size_t i = 1; i < items.size(); ++i)
    EXPECT_LT(items[i - 1].first, items[i].first);
}

TEST(CheckpointedMapTest, RestoreThenCaptureReturnsTheSameBytes) {
  Rng rng(11);
  WordCounts live;
  for (int i = 0; i < 500; ++i)
    live.put("k" + std::to_string(rng.uniform_int(0, 2000)),
             rng.uniform_int(-1000, 1000));
  const auto full = capture_full_bytes(live);
  WordCounts restored;
  serde::Reader r(full);
  restored.restore_full(r);
  EXPECT_EQ(capture_full_bytes(restored), full);
  EXPECT_EQ(restored.dirty_count(), 0u);
  serde::Writer empty_delta;
  restored.capture_delta(empty_delta);
  EXPECT_EQ(empty_delta.bytes(), hex_bytes("00"));
}

TEST(CheckpointedMapTest, CopyIsIndependentOfItsSource) {
  WordCounts source;
  source.put("a", 1);
  source.put("b", 2);
  WordCounts copy = source;
  copy.put("a", 10);
  copy.erase("b");
  copy.put("c", 3);
  EXPECT_EQ(*source.find("a"), 1);
  EXPECT_EQ(*source.find("b"), 2);
  EXPECT_FALSE(source.contains("c"));
  EXPECT_EQ(source.dirty_count(), 2u);
  EXPECT_EQ(copy.dirty_count(), 3u);

  serde::Writer source_delta;
  source.capture_delta(source_delta);
  EXPECT_EQ(copy.dirty_count(), 3u);
  serde::Writer copy_delta;
  copy.capture_delta(copy_delta);
  WordCounts replica;
  serde::Reader r(source_delta.bytes());
  replica.apply_delta(r);
  EXPECT_EQ(capture_full_bytes(replica), capture_full_bytes(source));
}

TEST(CheckpointedMapTest, RepeatedEraseAndReinsertStaysOneDeltaEntry) {
  WordCounts m;
  for (int i = 0; i < 10000; ++i) {
    m.put("k", i);
    m.erase("k");
  }
  m.put("k", 42);
  EXPECT_EQ(m.dirty_count(), 1u);
  serde::Writer delta;
  m.capture_delta(delta);
  serde::Reader r(delta.bytes());
  EXPECT_EQ(r.read_varint(), 1u);
}

// --- CheckpointedValue ----------------------------------------------------------

TEST(CheckpointedValueTest, DeltaOnlyWhenDirty) {
  CheckpointedValue<std::int64_t> v(5);
  serde::Writer w1;
  v.capture_delta(w1);  // initial state not dirty
  EXPECT_EQ(w1.size(), 1u);  // just the bool

  v.set(9);
  EXPECT_TRUE(v.dirty());
  serde::Writer w2;
  v.capture_delta(w2);
  EXPECT_FALSE(v.dirty());
  CheckpointedValue<std::int64_t> r(5);
  serde::Reader rd(w2.bytes());
  r.apply_delta(rd);
  EXPECT_EQ(r.get(), 9);
}

TEST(CheckpointedValueTest, MutateMarksDirty) {
  CheckpointedValue<std::string> v("abc");
  v.mutate([](std::string& s) { s += "d"; });
  EXPECT_TRUE(v.dirty());
  EXPECT_EQ(v.get(), "abcd");
}

TEST(CheckpointGroupTest, GroupCapturesMembersInOrder) {
  CheckpointedValue<std::int64_t> count(7);
  CheckpointedMap<std::string, std::int64_t> words;
  words.put("w", 1);
  CheckpointGroup group;
  group.add(count);
  group.add(words);
  EXPECT_TRUE(group.supports_delta());

  serde::Writer w;
  group.capture_full(w);

  CheckpointedValue<std::int64_t> count2;
  CheckpointedMap<std::string, std::int64_t> words2;
  CheckpointGroup group2;
  group2.add(count2);
  group2.add(words2);
  serde::Reader r(w.bytes());
  group2.restore_full(r);
  EXPECT_EQ(count2.get(), 7);
  EXPECT_EQ(*words2.find("w"), 1);
}

// --- ComponentSnapshot -----------------------------------------------------------

ComponentSnapshot sample_snapshot() {
  ComponentSnapshot s;
  s.component = ComponentId(2);
  s.version = 3;
  s.is_delta = false;
  s.vt = VirtualTime(233000);
  s.messages_processed = 17;
  s.estimator_version = 1;
  s.state = {std::byte{1}, std::byte{2}};
  s.inputs.push_back(InputPosition{WireId(0), VirtualTime(100), 5});
  OutputPosition op;
  op.wire = WireId(3);
  op.next_seq = 9;
  op.silence_through = VirtualTime(500);
  op.last_sent = VirtualTime(450);
  Message m;
  m.wire = WireId(3);
  m.vt = VirtualTime(450);
  m.seq = 8;
  m.payload = Payload(std::int64_t{12});
  op.retained.push_back(m);
  s.outputs.push_back(op);
  return s;
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  const ComponentSnapshot s = sample_snapshot();
  serde::Writer w;
  s.encode(w);
  serde::Reader r(w.bytes());
  const ComponentSnapshot d = ComponentSnapshot::decode(r);
  EXPECT_EQ(d.component, s.component);
  EXPECT_EQ(d.version, s.version);
  EXPECT_EQ(d.vt, s.vt);
  EXPECT_EQ(d.messages_processed, s.messages_processed);
  EXPECT_EQ(d.estimator_version, s.estimator_version);
  EXPECT_EQ(d.state, s.state);
  ASSERT_EQ(d.inputs.size(), 1u);
  EXPECT_EQ(d.inputs[0].horizon, VirtualTime(100));
  ASSERT_EQ(d.outputs.size(), 1u);
  EXPECT_EQ(d.outputs[0].last_sent, VirtualTime(450));
  ASSERT_EQ(d.outputs[0].retained.size(), 1u);
  EXPECT_EQ(d.outputs[0].retained[0].payload.as_int(), 12);
}

TEST(SnapshotTest, EncodedSizeMatchesEncoding) {
  const ComponentSnapshot s = sample_snapshot();
  serde::Writer w;
  s.encode(w);
  EXPECT_EQ(s.encoded_size(), w.size());
}

// --- ReplicaStore ------------------------------------------------------------------

TEST(ReplicaStoreTest, FullReplacesBaseAndClearsDeltas) {
  ReplicaStore store;
  ComponentSnapshot s = sample_snapshot();
  s.version = 1;
  s.is_delta = false;
  EXPECT_TRUE(store.store(s));

  s.version = 2;
  s.is_delta = true;
  EXPECT_TRUE(store.store(s));
  EXPECT_EQ(store.latest_version(s.component), 2u);

  s.version = 3;
  s.is_delta = false;
  EXPECT_TRUE(store.store(s));
  const auto plan = store.restore(s.component);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->base.version, 3u);
  EXPECT_TRUE(plan->deltas.empty());
}

TEST(ReplicaStoreTest, RejectsDeltaWithoutBase) {
  ReplicaStore store;
  ComponentSnapshot s = sample_snapshot();
  s.is_delta = true;
  EXPECT_FALSE(store.store(s));
}

TEST(ReplicaStoreTest, RejectsBrokenChain) {
  ReplicaStore store;
  ComponentSnapshot s = sample_snapshot();
  s.version = 1;
  s.is_delta = false;
  EXPECT_TRUE(store.store(s));
  s.version = 3;  // skipped 2
  s.is_delta = true;
  EXPECT_FALSE(store.store(s));
}

TEST(ReplicaStoreTest, RestoreUnknownComponent) {
  ReplicaStore store;
  EXPECT_FALSE(store.restore(ComponentId(99)).has_value());
  EXPECT_EQ(store.latest_version(ComponentId(99)), 0u);
}

TEST(ReplicaStoreTest, AccountsBytes) {
  ReplicaStore store;
  ComponentSnapshot s = sample_snapshot();
  s.version = 1;
  s.is_delta = false;
  const auto size = s.encoded_size();
  store.store(s);
  EXPECT_EQ(store.bytes_received(), size);
  EXPECT_EQ(store.snapshots_received(), 1u);
  store.clear();
  EXPECT_EQ(store.bytes_received(), 0u);
}

}  // namespace
}  // namespace tart::checkpoint
