// Unit tests for payloads, messages, the pessimistic-merge inbox, and
// retention buffers. The inbox tests encode the paper's scheduling rule
// (§II.E) including the tie-break footnote and the merge example.
#include <gtest/gtest.h>

#include "wire/inbox.h"
#include "wire/message.h"
#include "wire/payload.h"
#include "wire/retention_buffer.h"

namespace tart {
namespace {

Message msg(WireId wire, std::int64_t vt, std::uint64_t seq,
            Payload payload = Payload()) {
  Message m;
  m.wire = wire;
  m.vt = VirtualTime(vt);
  m.seq = seq;
  m.payload = std::move(payload);
  return m;
}

// --- Payload -----------------------------------------------------------------

TEST(PayloadTest, VariantsRoundTripThroughSerde) {
  const std::vector<Payload> values = {
      Payload(),
      Payload(std::int64_t{-42}),
      Payload(2.718),
      Payload("a sentence"),
      Payload(std::vector<std::int64_t>{1, 2, 3}),
      Payload(std::vector<std::string>{"the", "cat", "sat"}),
      Payload(std::vector<std::byte>{std::byte{9}}),
  };
  for (const Payload& p : values) {
    serde::Writer w;
    p.encode(w);
    serde::Reader r(w.bytes());
    EXPECT_EQ(Payload::decode(r), p);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(PayloadTest, Accessors) {
  EXPECT_TRUE(Payload().empty());
  EXPECT_EQ(Payload(std::int64_t{5}).as_int(), 5);
  EXPECT_EQ(Payload("x").as_string(), "x");
  EXPECT_EQ(Payload(std::vector<std::string>{"a"}).as_strings().size(), 1u);
  EXPECT_THROW((void)Payload("x").as_int(), std::bad_variant_access);
}

TEST(MessageTest, RoundTripAllFields) {
  Message m = msg(WireId(3), 233000, 17, Payload("word"));
  m.kind = MessageKind::kCall;
  m.call_id = 99;
  serde::Writer w;
  m.encode(w);
  serde::Reader r(w.bytes());
  const Message d = Message::decode(r);
  EXPECT_EQ(d.wire, m.wire);
  EXPECT_EQ(d.vt, m.vt);
  EXPECT_EQ(d.seq, m.seq);
  EXPECT_EQ(d.kind, MessageKind::kCall);
  EXPECT_EQ(d.call_id, 99u);
  EXPECT_EQ(d.payload, m.payload);
}

TEST(MessageTest, SchedulingKeyOrdersByVtThenWire) {
  EXPECT_LT(msg(WireId(5), 100, 0).key(), msg(WireId(1), 101, 0).key());
  EXPECT_LT(msg(WireId(1), 100, 0).key(), msg(WireId(5), 100, 0).key());
}

// --- Inbox: the paper's merge example ---------------------------------------

class InboxMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inbox.add_wire(w1);
    inbox.add_wire(w2);
  }
  Inbox inbox;
  const WireId w1{1};
  const WireId w2{2};
};

TEST_F(InboxMergeTest, PaperExampleProcessesSender2First) {
  // Sender1's message arrives first in real time at vt 233000; Sender2's
  // (vt 202000) must still be processed first, and only after Sender1 is
  // known silent through 202000.
  EXPECT_EQ(inbox.offer(msg(w1, 233000, 0)), AcceptResult::kAccepted);
  EXPECT_EQ(inbox.offer(msg(w2, 202000, 0)), AcceptResult::kAccepted);

  const auto head = inbox.peek();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->vt, VirtualTime(202000));
  EXPECT_EQ(head->wire, w2);
  // Both wires have pending heads, so the merge can proceed immediately:
  // w1's head (233000) orders after w2's head.
  EXPECT_TRUE(inbox.head_eligible());
  EXPECT_EQ(inbox.pop()->wire, w2);
  // Sender2's wire is now empty: before Sender1's 233000 message may run,
  // Sender2 must promise silence far enough (through 232999 suffices, as
  // w2 loses the tie-break to w1).
  EXPECT_FALSE(inbox.pop().has_value());
  inbox.announce_silence(w2, VirtualTime(232999));
  EXPECT_EQ(inbox.pop()->wire, w1);
  EXPECT_FALSE(inbox.pop().has_value());
}

TEST_F(InboxMergeTest, PessimismDelayUntilSilencePromised) {
  // Only Sender2's message is here; Sender1 might still produce an earlier
  // message, so the head must wait (pessimism delay).
  EXPECT_EQ(inbox.offer(msg(w2, 202000, 0)), AcceptResult::kAccepted);
  EXPECT_FALSE(inbox.head_eligible());
  EXPECT_EQ(inbox.lagging_wires(), std::vector<WireId>{w1});

  // Silence through 201999 is NOT enough: w1 < w2, so a w1 message at
  // exactly 202000 would win the tie-break.
  inbox.announce_silence(w1, VirtualTime(201999));
  EXPECT_FALSE(inbox.head_eligible());

  inbox.announce_silence(w1, VirtualTime(202000));
  EXPECT_TRUE(inbox.head_eligible());
  EXPECT_EQ(inbox.pop()->vt, VirtualTime(202000));
}

TEST_F(InboxMergeTest, TieBreakFavorsLowerWireId) {
  inbox.offer(msg(w1, 500, 0));
  inbox.offer(msg(w2, 500, 0));
  EXPECT_EQ(inbox.pop()->wire, w1);
  EXPECT_EQ(inbox.pop()->wire, w2);
}

TEST_F(InboxMergeTest, HorizonMinusOneSufficesWhenTieBreakWins) {
  // Head on w1 at t; w2 silent only through t-1. Any future w2 message has
  // vt >= t, and at t the lower wire id (w1) wins: eligible.
  inbox.offer(msg(w1, 1000, 0));
  inbox.announce_silence(w2, VirtualTime(999));
  EXPECT_TRUE(inbox.head_eligible());
}

TEST_F(InboxMergeTest, HorizonMinusOneInsufficientWhenTieBreakLoses) {
  // Head on w2; w1 silent through t-1 only. A future w1 message at exactly
  // t would beat us: not eligible.
  inbox.offer(msg(w2, 1000, 0));
  inbox.announce_silence(w1, VirtualTime(999));
  EXPECT_FALSE(inbox.head_eligible());
  inbox.announce_silence(w1, VirtualTime(1000));
  EXPECT_TRUE(inbox.head_eligible());
}

TEST_F(InboxMergeTest, ImpliedSilenceFromLaterMessage) {
  // Lazy propagation: a message at t2 implies silence for earlier ticks.
  inbox.offer(msg(w2, 300, 0));
  inbox.offer(msg(w1, 800, 0));  // implies w1 silent through 799
  EXPECT_TRUE(inbox.head_eligible());
  EXPECT_EQ(inbox.pop()->wire, w2);
}

TEST_F(InboxMergeTest, DuplicateByTimestampDiscarded) {
  inbox.offer(msg(w1, 100, 0));
  ASSERT_TRUE(inbox.pop().has_value() ||
              true);  // may be ineligible; drain below
  inbox.announce_silence(w2, VirtualTime::infinity());
  while (inbox.pop().has_value()) {
  }
  // Replay re-sends the same tick: discarded as duplicate.
  EXPECT_EQ(inbox.offer(msg(w1, 100, 0)), AcceptResult::kDuplicate);
  // Also stale vt below horizon.
  EXPECT_EQ(inbox.offer(msg(w1, 50, 1)), AcceptResult::kDuplicate);
}

TEST_F(InboxMergeTest, GapDetectedOnSeqJump) {
  inbox.offer(msg(w1, 100, 0));
  EXPECT_EQ(inbox.offer(msg(w1, 300, 2)), AcceptResult::kGap);
  EXPECT_EQ(inbox.next_seq(w1), 1u);
  // The replayed middle message heals the gap.
  EXPECT_EQ(inbox.offer(msg(w1, 200, 1)), AcceptResult::kAccepted);
  EXPECT_EQ(inbox.offer(msg(w1, 300, 2)), AcceptResult::kAccepted);
}

TEST_F(InboxMergeTest, AccountedThroughIsMinimumAcrossWires) {
  EXPECT_EQ(inbox.accounted_through(), VirtualTime(-1));
  inbox.announce_silence(w1, VirtualTime(500));
  EXPECT_EQ(inbox.accounted_through(), VirtualTime(-1));
  inbox.announce_silence(w2, VirtualTime(300));
  EXPECT_EQ(inbox.accounted_through(), VirtualTime(300));
}

TEST_F(InboxMergeTest, ExhaustedWhenAllClosedAndDrained) {
  EXPECT_FALSE(inbox.exhausted());
  inbox.announce_silence(w1, VirtualTime::infinity());
  inbox.announce_silence(w2, VirtualTime::infinity());
  EXPECT_TRUE(inbox.exhausted());
  // Closing is about the future, not pending messages.
  Inbox other;
  other.add_wire(w1);
  other.offer(msg(w1, 5, 0));
  other.announce_silence(w1, VirtualTime::infinity());
  EXPECT_FALSE(other.exhausted());
  (void)other.pop();
  EXPECT_TRUE(other.exhausted());
}

TEST_F(InboxMergeTest, SilenceMonotoneIgnoresStale) {
  inbox.announce_silence(w1, VirtualTime(900));
  inbox.announce_silence(w1, VirtualTime(100));  // stale, ignored
  EXPECT_EQ(inbox.wire_horizon(w1), VirtualTime(900));
}

TEST_F(InboxMergeTest, SingleWireNeedsNoSilence) {
  Inbox single;
  single.add_wire(w1);
  single.offer(msg(w1, 42, 0));
  EXPECT_TRUE(single.head_eligible());
  EXPECT_EQ(single.pop()->vt, VirtualTime(42));
}

TEST_F(InboxMergeTest, FifoWithinOneWire) {
  inbox.announce_silence(w2, VirtualTime::infinity());
  inbox.offer(msg(w1, 10, 0));
  inbox.offer(msg(w1, 20, 1));
  inbox.offer(msg(w1, 30, 2));
  EXPECT_EQ(inbox.pop()->vt, VirtualTime(10));
  EXPECT_EQ(inbox.pop()->vt, VirtualTime(20));
  EXPECT_EQ(inbox.pop()->vt, VirtualTime(30));
}

TEST_F(InboxMergeTest, ThreeWayMergeOrder) {
  Inbox three;
  const WireId a{1}, b{2}, c{3};
  three.add_wire(a);
  three.add_wire(b);
  three.add_wire(c);
  three.offer(msg(c, 100, 0));
  three.offer(msg(a, 300, 0));
  three.offer(msg(b, 200, 0));
  EXPECT_EQ(three.pop()->wire, c);
  // The emptied wires must re-promise silence before later heads run.
  three.announce_silence(c, VirtualTime::infinity());
  EXPECT_EQ(three.pop()->wire, b);
  three.announce_silence(b, VirtualTime::infinity());
  EXPECT_EQ(three.pop()->wire, a);
}

TEST_F(InboxMergeTest, LaggingWiresListsAllBlockers) {
  Inbox three;
  const WireId a{1}, b{2}, c{3};
  three.add_wire(a);
  three.add_wire(b);
  three.add_wire(c);
  three.offer(msg(b, 500, 0));
  const auto lagging = three.lagging_wires();
  EXPECT_EQ(lagging.size(), 2u);
  three.announce_silence(a, VirtualTime(500));
  EXPECT_EQ(three.lagging_wires(), std::vector<WireId>{c});
}

TEST_F(InboxMergeTest, RestorePositionResetsDedupeBoundary) {
  inbox.offer(msg(w1, 100, 0));
  inbox.offer(msg(w1, 200, 1));
  inbox.restore_position(w1, VirtualTime(100), 1);
  // Pending cleared; replay of seq 1 accepted, seq 0 duplicate.
  EXPECT_EQ(inbox.pending(), 0u);
  EXPECT_EQ(inbox.offer(msg(w1, 100, 0)), AcceptResult::kDuplicate);
  EXPECT_EQ(inbox.offer(msg(w1, 200, 1)), AcceptResult::kAccepted);
}

TEST_F(InboxMergeTest, HeadVtIsThePeekedHeadsVt) {
  EXPECT_FALSE(inbox.head_vt().has_value());
  inbox.offer(msg(w2, 200, 0));
  // The head is reported whether or not it is eligible yet.
  ASSERT_TRUE(inbox.head_vt().has_value());
  EXPECT_EQ(*inbox.head_vt(), VirtualTime(200));
  EXPECT_FALSE(inbox.head_eligible());
  // An earlier arrival on another wire becomes the head.
  inbox.offer(msg(w1, 150, 0));
  EXPECT_EQ(*inbox.head_vt(), VirtualTime(150));
  EXPECT_EQ(*inbox.head_vt(), inbox.peek()->vt);
}

TEST_F(InboxMergeTest, OfferMovesAnAcceptedMessageIn) {
  Message first = msg(w1, 100, 0, Payload(std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(inbox.offer(std::move(first)), AcceptResult::kAccepted);
  // A rejected rvalue is left with the caller, untouched.
  Message dup = msg(w1, 100, 0, Payload("kept"));
  EXPECT_EQ(inbox.offer(std::move(dup)), AcceptResult::kDuplicate);
  EXPECT_EQ(dup.payload, Payload("kept"));  // NOLINT(bugprone-use-after-move)
  Message gap = msg(w1, 300, 5, Payload("kept too"));
  EXPECT_EQ(inbox.offer(std::move(gap)), AcceptResult::kGap);
  EXPECT_EQ(gap.payload, Payload("kept too"));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(inbox.pending_on(w1), 1u);
  EXPECT_EQ(inbox.next_seq(w1), 1u);
  EXPECT_EQ(inbox.wire_horizon(w1), VirtualTime(100));
}

TEST_F(InboxMergeTest, PopReturnsTheHeadWithItsPayloadIntact) {
  const std::vector<std::string> words{"the", "cat", "sat"};
  inbox.offer(msg(w2, 150, 0, Payload(words)));
  inbox.offer(msg(w1, 250, 0, Payload(std::int64_t{7})));
  inbox.announce_silence(w1, VirtualTime(150));
  const auto m = inbox.pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->wire, w2);
  EXPECT_EQ(m->vt, VirtualTime(150));
  EXPECT_EQ(m->seq, 0u);
  EXPECT_EQ(m->payload.as_strings(), words);
  EXPECT_EQ(inbox.pending(), 1u);
  // The remaining head is untouched by the move of the first.
  inbox.announce_silence(w2, VirtualTime::infinity());
  const auto next = inbox.pop();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->payload.as_int(), 7);
  EXPECT_FALSE(inbox.head_vt().has_value());
}

TEST_F(InboxMergeTest, LaggingWiresFollowTheHeadAcrossWires) {
  Inbox three;
  const WireId a{1}, b{2}, c{3};
  three.add_wire(a);
  three.add_wire(b);
  three.add_wire(c);
  EXPECT_TRUE(three.lagging_wires().empty());  // no head, no blockers
  three.offer(msg(c, 400, 0));
  EXPECT_EQ(three.lagging_wires(), (std::vector<WireId>{a, b}));
  // An earlier head on b takes over: c's pending head now permits it.
  three.offer(msg(b, 300, 0));
  EXPECT_EQ(three.lagging_wires(), std::vector<WireId>{a});
  // Horizon 299 on the lower-id wire a loses the vt == 300 tie-break.
  three.announce_silence(a, VirtualTime(299));
  EXPECT_EQ(three.lagging_wires(), std::vector<WireId>{a});
  three.announce_silence(a, VirtualTime(300));
  EXPECT_TRUE(three.lagging_wires().empty());
  EXPECT_TRUE(three.head_eligible());
}

// --- Hyper-aggressive bias: receiver-side data-grid inference ----------------

TEST_F(InboxMergeTest, DataGridImpliesSilenceBetweenBoundaries) {
  // w1's sender follows the bias discipline with window 100: data only at
  // multiples of 100. A head on w2 at vt 150 needs w1 silent through 150;
  // w1's explicit horizon is only 100, but ticks 101..199 cannot carry
  // data by construction.
  inbox.set_data_grid(w1, 100);
  inbox.offer(msg(w2, 150, 0));
  (void)inbox.announce_silence(w1, VirtualTime(100));
  EXPECT_TRUE(inbox.head_eligible());
  EXPECT_EQ(inbox.pop()->vt, VirtualTime(150));
}

TEST_F(InboxMergeTest, DataGridDoesNotCoverBoundaries) {
  // The next boundary itself (200) may carry data: a head at exactly 200
  // on the higher-id wire must wait for an explicit promise.
  inbox.set_data_grid(w1, 100);
  inbox.offer(msg(w2, 200, 0));
  (void)inbox.announce_silence(w1, VirtualTime(100));
  EXPECT_FALSE(inbox.head_eligible());
  (void)inbox.announce_silence(w1, VirtualTime(200));
  EXPECT_TRUE(inbox.head_eligible());
}

TEST_F(InboxMergeTest, DataGridAcceptsBoundaryData) {
  inbox.set_data_grid(w1, 100);
  (void)inbox.announce_silence(w1, VirtualTime(150));  // horizon mid-window
  // Data at the next boundary is legal and must not be treated as a
  // duplicate by the grid-implied silence.
  EXPECT_EQ(inbox.offer(msg(w1, 200, 0)), AcceptResult::kAccepted);
}

TEST_F(InboxMergeTest, GridOnFreshWireIsInert) {
  inbox.set_data_grid(w1, 100);
  // Nothing accounted yet (horizon -1): no inference possible.
  inbox.offer(msg(w2, 50, 0));
  EXPECT_FALSE(inbox.head_eligible());
}

// --- RetentionBuffer ---------------------------------------------------------

TEST(RetentionBufferTest, RecordAndReplayAfterVt) {
  RetentionBuffer buf;
  buf.record(msg(WireId(1), 100, 0));
  buf.record(msg(WireId(1), 200, 1));
  buf.record(msg(WireId(1), 300, 2));
  const auto replayed = buf.replay_after(VirtualTime(100));
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].vt, VirtualTime(200));
  EXPECT_EQ(replayed[1].vt, VirtualTime(300));
}

TEST(RetentionBufferTest, ReplayFromSeq) {
  RetentionBuffer buf;
  for (int i = 0; i < 5; ++i)
    buf.record(msg(WireId(1), 100 * (i + 1), static_cast<std::uint64_t>(i)));
  EXPECT_EQ(buf.replay_from_seq(3).size(), 2u);
  EXPECT_EQ(buf.replay_from_seq(0).size(), 5u);
  EXPECT_EQ(buf.replay_from_seq(99).size(), 0u);
}

TEST(RetentionBufferTest, StabilityTrimsPrefix) {
  RetentionBuffer buf;
  buf.record(msg(WireId(1), 100, 0));
  buf.record(msg(WireId(1), 200, 1));
  buf.record(msg(WireId(1), 300, 2));
  buf.acknowledge_through(VirtualTime(200));
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_TRUE(buf.replay_after(VirtualTime(-1)).front().vt ==
              VirtualTime(300));
  // Acks are idempotent and never remove unacked messages.
  buf.acknowledge_through(VirtualTime(200));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(RetentionBufferTest, LastSentSurvivesTrim) {
  RetentionBuffer buf;
  buf.record(msg(WireId(1), 100, 0));
  buf.acknowledge_through(VirtualTime(100));
  EXPECT_TRUE(buf.empty());
  ASSERT_TRUE(buf.last_sent_vt().has_value());
  EXPECT_EQ(*buf.last_sent_vt(), VirtualTime(100));
  EXPECT_EQ(buf.next_seq(), 1u);
}

TEST(RetentionBufferTest, RestoreReinstallsExactState) {
  RetentionBuffer buf;
  std::vector<Message> retained{msg(WireId(1), 200, 3),
                                msg(WireId(1), 250, 4)};
  buf.restore(retained, 5);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.next_seq(), 5u);
  EXPECT_EQ(*buf.last_sent_vt(), VirtualTime(250));
  // Re-execution continues the sequence.
  buf.record(msg(WireId(1), 300, 5));
  EXPECT_EQ(buf.size(), 3u);
}

TEST(RetentionBufferTest, FindByCallId) {
  RetentionBuffer buf;
  Message reply = msg(WireId(7), 500, 0);
  reply.kind = MessageKind::kReply;
  reply.call_id = 42;
  buf.record(reply);
  ASSERT_TRUE(buf.find_by_call_id(42).has_value());
  EXPECT_FALSE(buf.find_by_call_id(43).has_value());
}

TEST(RetentionBufferTest, ClearResets) {
  RetentionBuffer buf;
  buf.record(msg(WireId(1), 100, 0));
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.last_sent_vt().has_value());
  EXPECT_EQ(buf.next_seq(), 0u);
}

}  // namespace
}  // namespace tart
