#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/buffer.hpp"

namespace aa::sim {
namespace {

Message msg(int round, int value) {
  Message m;
  m.round = round;
  m.kind = 1;
  m.value = value;
  return m;
}

/// Publish one message as a one-item run; returns its id.
MsgId add1(MessageBuffer& b, ProcId sender, ProcId receiver, const Message& m,
           std::int64_t window, std::int64_t chain) {
  const StagedMessage item{receiver, m};
  return b.add_batch(sender, std::span<const StagedMessage>(&item, 1), window,
                     chain);
}

TEST(MessageBuffer, AddAssignsSequentialIds) {
  MessageBuffer b(3);
  EXPECT_EQ(add1(b, 0, 1, msg(1, 0), 0, 1), 0);
  EXPECT_EQ(add1(b, 1, 2, msg(1, 1), 0, 1), 1);
  EXPECT_EQ(b.total_sent(), 2u);
  EXPECT_EQ(b.pending_count(), 2u);
}

TEST(MessageBuffer, GetReturnsEnvelope) {
  MessageBuffer b(3);
  const MsgId id = add1(b, 2, 0, msg(5, 1), 7, 3);
  const Envelope& e = b.get(id);
  EXPECT_EQ(e.sender, 2);
  EXPECT_EQ(e.receiver, 0);
  EXPECT_EQ(e.payload.round, 5);
  EXPECT_EQ(e.payload.value, 1);
  EXPECT_EQ(e.window, 7);
  EXPECT_EQ(e.chain, 3);
}

TEST(MessageBuffer, DeliverTransitions) {
  MessageBuffer b(2);
  const MsgId id = add1(b, 0, 1, msg(1, 0), 0, 1);
  EXPECT_TRUE(b.is_pending(id));
  b.mark_delivered(id);
  EXPECT_FALSE(b.is_pending(id));
  EXPECT_EQ(b.delivered_count(), 1u);
  EXPECT_EQ(b.pending_count(), 0u);
}

TEST(MessageBuffer, DoubleDeliverThrows) {
  MessageBuffer b(2);
  const MsgId id = add1(b, 0, 1, msg(1, 0), 0, 1);
  b.mark_delivered(id);
  EXPECT_THROW(b.mark_delivered(id), std::logic_error);
}

TEST(MessageBuffer, RetiredIdLookupThrows) {
  MessageBuffer b(2);
  const MsgId id = add1(b, 0, 1, msg(1, 0), 0, 1);
  b.mark_delivered(id);
  // The slot recycled; the envelope is gone but the id stays recognizably
  // retired (not "never issued").
  EXPECT_THROW((void)b.get(id), std::logic_error);
  EXPECT_FALSE(b.is_pending(id));
}

TEST(MessageBuffer, PendingToFiltersByReceiverInSendOrder) {
  MessageBuffer b(3);
  const MsgId a = add1(b, 0, 2, msg(1, 0), 0, 1);
  add1(b, 0, 1, msg(1, 0), 0, 1);
  const MsgId c = add1(b, 1, 2, msg(1, 1), 0, 1);
  const auto ids = b.pending_to_ids(2);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], a);
  EXPECT_EQ(ids[1], c);
}

TEST(MessageBuffer, DeliveredExcludedFromQueries) {
  MessageBuffer b(2);
  const MsgId id = add1(b, 0, 1, msg(1, 0), 0, 1);
  b.mark_delivered(id);
  EXPECT_TRUE(b.pending_to_ids(1).empty());
  EXPECT_TRUE(b.all_pending_ids().empty());
}

TEST(MessageBuffer, RangesYieldEnvelopesInSendOrder) {
  MessageBuffer b(3);
  add1(b, 0, 2, msg(1, 0), 0, 1);
  add1(b, 1, 2, msg(1, 1), 0, 1);
  add1(b, 2, 0, msg(1, 0), 0, 1);
  MsgId prev = kNoMsg;
  int seen = 0;
  for (const Envelope& e : b.all_pending()) {
    EXPECT_GT(e.id, prev);
    prev = e.id;
    ++seen;
  }
  EXPECT_EQ(seen, 3);
  seen = 0;
  for (const Envelope& e : b.pending_to(2)) {
    EXPECT_EQ(e.receiver, 2);
    ++seen;
  }
  EXPECT_EQ(seen, 2);
}

TEST(MessageBuffer, DeliveringCurrentElementDuringIterationIsSafe) {
  MessageBuffer b(2);
  for (int k = 0; k < 5; ++k) add1(b, 0, 1, msg(1, k % 2), 0, 1);
  std::size_t delivered = 0;
  for (const Envelope& e : b.pending_to(1)) {
    b.mark_delivered(e.id);
    ++delivered;
  }
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(b.pending_count(), 0u);
}

TEST(MessageBuffer, ClaimedIdsShareTheIdSpaceAndCounters) {
  // The window store claims its ids here: they continue the arena's ids,
  // count as pending until settled, and never resolve as arena messages.
  MessageBuffer b(3);
  const MsgId a = add1(b, 0, 1, msg(1, 0), 0, 1);
  // Only an empty arena can claim.
  EXPECT_THROW((void)b.claim_ids(4), std::invalid_argument);
  b.mark_delivered(a);
  const MsgId first = b.claim_ids(4);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(b.total_sent(), 5u);
  EXPECT_EQ(b.pending_count(), 4u);
  EXPECT_EQ(b.claimed_count(), 4u);
  for (MsgId id = first; id < first + 4; ++id) EXPECT_FALSE(b.is_pending(id));
  EXPECT_NO_THROW(b.audit());
  b.retire_claimed(1, 0);
  EXPECT_NO_THROW(b.audit());
  b.retire_claimed(1, 2);
  EXPECT_EQ(b.pending_count(), 0u);
  EXPECT_EQ(b.delivered_count(), 3u);
  EXPECT_EQ(b.dropped_count(), 2u);
  EXPECT_THROW(b.retire_claimed(1, 0), std::logic_error);
  // The arena publishes again after the claim, on fresh ids.
  const MsgId c = add1(b, 2, 0, msg(2, 1), 1, 1);
  EXPECT_EQ(c, 5);
  EXPECT_TRUE(b.is_pending(c));
  EXPECT_EQ(b.get(c).sender, 2);
  EXPECT_NO_THROW(b.audit());
}

TEST(MessageBuffer, SlotsRecycleAcrossRounds) {
  MessageBuffer b(4);
  for (std::int64_t w = 0; w < 200; ++w) {
    for (int s = 0; s < 4; ++s) {
      for (int r = 0; r < 4; ++r) add1(b, s, r, msg(1, 0), 0, 1);
    }
    for (int r = 0; r < 4; ++r) {
      for (const Envelope& e : b.pending_to(r)) b.mark_delivered(e.id);
    }
  }
  EXPECT_EQ(b.pending_count(), 0u);
  EXPECT_EQ(b.total_sent(), 200u * 16u);
  // The arena never needed more slots than one round's live load.
  EXPECT_LE(b.slot_capacity(), 16u);
}

TEST(MessageBuffer, BadArgumentsThrow) {
  MessageBuffer b(2);
  EXPECT_THROW(add1(b, -1, 0, msg(1, 0), 0, 1), std::invalid_argument);
  EXPECT_THROW(add1(b, 0, 2, msg(1, 0), 0, 1), std::invalid_argument);
  EXPECT_THROW((void)b.get(0), std::invalid_argument);
  EXPECT_THROW((void)b.pending_to(5), std::invalid_argument);
  EXPECT_THROW(MessageBuffer(0), std::invalid_argument);
}

}  // namespace
}  // namespace aa::sim
