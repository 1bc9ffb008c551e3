// Tests for the external message log and the determinism-fault log.
#include <gtest/gtest.h>

#include "log/fault_log.h"
#include "log/message_log.h"

namespace tart::log {
namespace {

Message external(WireId wire, std::int64_t vt, std::uint64_t seq,
                 const char* text) {
  Message m;
  m.wire = wire;
  m.vt = VirtualTime(vt);
  m.seq = seq;
  m.payload = Payload(text);
  return m;
}

TEST(MessageLogTest, AppendAndReplayAfterVt) {
  ExternalMessageLog log;
  const WireId w(0);
  log.append(external(w, 50000, 0, "a"));
  log.append(external(w, 80000, 1, "b"));
  log.append(external(w, 90000, 2, "c"));

  const auto replayed = log.replay_after(w, VirtualTime(50000));
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].payload.as_string(), "b");
  EXPECT_EQ(replayed[1].payload.as_string(), "c");
}

TEST(MessageLogTest, ReplayFromSeq) {
  ExternalMessageLog log;
  const WireId w(0);
  for (int i = 0; i < 5; ++i)
    log.append(external(w, 1000 * (i + 1), static_cast<std::uint64_t>(i), "x"));
  EXPECT_EQ(log.replay_from_seq(w, 2).size(), 3u);
  EXPECT_EQ(log.replay_from_seq(w, 0).size(), 5u);
}

TEST(MessageLogTest, WiresAreIndependent) {
  ExternalMessageLog log;
  log.append(external(WireId(0), 100, 0, "w0"));
  log.append(external(WireId(1), 200, 0, "w1"));
  EXPECT_EQ(log.size(WireId(0)), 1u);
  EXPECT_EQ(log.size(WireId(1)), 1u);
  EXPECT_EQ(log.total_size(), 2u);
  EXPECT_EQ(log.replay_after(WireId(0), VirtualTime(-1)).size(), 1u);
}

TEST(MessageLogTest, EmptyWireBehaviour) {
  ExternalMessageLog log;
  EXPECT_EQ(log.size(WireId(7)), 0u);
  EXPECT_TRUE(log.replay_after(WireId(7), VirtualTime(-1)).empty());
  EXPECT_EQ(log.last_vt(WireId(7)), VirtualTime(-1));
}

TEST(MessageLogTest, LastVtTracksAppends) {
  ExternalMessageLog log;
  const WireId w(0);
  log.append(external(w, 500, 0, "x"));
  EXPECT_EQ(log.last_vt(w), VirtualTime(500));
  log.append(external(w, 900, 1, "y"));
  EXPECT_EQ(log.last_vt(w), VirtualTime(900));
}

// Records reload in store order; a wire whose seqs were stored out of
// order (interleaved writers) is put back in seq order, and records below
// a restored base are index-tracked but not retained.
TEST(MessageLogTest, LoadRecordsRestoresSeqOrderPerWire) {
  const WireId a(0), b(1);
  ExternalMessageLog log;
  log.set_base(a, 1, VirtualTime(100));  // a's seq 0 is covered
  log.load_messages({external(a, 100, 0, "a0"), external(b, 150, 1, "b1"),
                     external(a, 200, 1, "a1"), external(b, 120, 0, "b0"),
                     external(a, 300, 2, "a2")},
                    0);

  const auto on_a = log.replay_from_seq(a, 0);
  ASSERT_EQ(on_a.size(), 2u);
  EXPECT_EQ(on_a[0].payload.as_string(), "a1");
  EXPECT_EQ(on_a[1].payload.as_string(), "a2");
  const auto on_b = log.replay_from_seq(b, 0);
  ASSERT_EQ(on_b.size(), 2u);
  EXPECT_EQ(on_b[0].payload.as_string(), "b0");
  EXPECT_EQ(on_b[1].payload.as_string(), "b1");
  const auto tail = log.replay_from_seq(b, 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].seq, 1u);
  EXPECT_TRUE(log.replay_from_seq(b, 2).empty());
  EXPECT_EQ(log.next_seq(a), 3u);
  EXPECT_EQ(log.next_seq(b), 2u);
  EXPECT_EQ(log.total_size(), 4u);
  // The covered a0 still occupies record index 0.
  EXPECT_EQ(log.covered_record_index({{a, 1}}), 1u);
}

TEST(FaultLogTest, AppendAndQueryAfterVersion) {
  DeterminismFaultLog log;
  const ComponentId c(1);
  log.append(FaultRecord{c, 1, VirtualTime(100'000'000), {0.0, 62000.0}});
  log.append(FaultRecord{c, 2, VirtualTime(200'000'000), {0.0, 61500.0}});

  EXPECT_EQ(log.latest_version(c), 2u);
  const auto all = log.records_after(c, 0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].version, 1u);
  const auto tail = log.records_after(c, 1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].version, 2u);
  EXPECT_EQ(tail[0].coefficients[1], 61500.0);
}

TEST(FaultLogTest, ComponentsAreIndependent) {
  DeterminismFaultLog log;
  log.append(FaultRecord{ComponentId(0), 1, VirtualTime(10), {1.0}});
  EXPECT_EQ(log.latest_version(ComponentId(1)), 0u);
  EXPECT_TRUE(log.records_after(ComponentId(1), 0).empty());
  EXPECT_EQ(log.total_records(), 1u);
}

}  // namespace
}  // namespace tart::log
