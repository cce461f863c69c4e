// Memory and order regression tests for the two message stores: the window
// store's run vectors must stay flat over long horizons, and the recycling
// MessageBuffer arena must preserve the append-only store's ascending-id
// iteration order exactly (checker reports depend on it), through slot
// recycling and the window store's id claims, with its id index sized by
// the live messages rather than the ids issued.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

/// Total capacity of the window store's run vectors.
std::size_t run_capacity(Execution& e) {
  std::size_t cap = 0;
  for (const SenderRun& run : e.window_scratch().runs) {
    cap += run.items.capacity();
  }
  return cap;
}

TEST(Arena, WindowRunCapacityStaysFlatAcross5kWindows) {
  // A sending step swaps its staged vector with the sender's run, so each
  // sender's two vectors trade places every window and keep their
  // capacity: after warm-up the window store allocates nothing, however
  // many windows run, and the arena is never touched.
  const int n = 16;
  const int t = 2;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              7);
  adversary::SplitKeeperAdversary keeper;
  std::size_t warm_peak = 0;
  std::size_t late_peak = 0;
  for (int w = 0; w < 5000; ++w) {
    run_acceptable_window(e, keeper, t);
    std::size_t& peak = w < 200 ? warm_peak : late_peak;
    peak = std::max(peak, run_capacity(e));
  }
  EXPECT_GT(warm_peak, 0u);
  EXPECT_LE(late_peak, warm_peak);
  // One window's burst per sender: a couple of broadcasts at most.
  EXPECT_LE(warm_peak, 4u * static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(n));
  // Every window ends settled (all of its messages delivered or dropped).
  EXPECT_EQ(e.buffer().pending_count(), 0u);
  EXPECT_EQ(e.buffer().slot_capacity(), 0u);
  EXPECT_EQ(e.buffer().total_sent(),
            5000u * static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  EXPECT_EQ(e.buffer().delivered_count() + e.buffer().dropped_count(),
            e.buffer().total_sent());
}

/// Reference model: an append-only log with a pending flag per message,
/// kept naive on purpose.
struct NaiveModel {
  struct Entry {
    MsgId id;
    ProcId sender;
    ProcId receiver;
    bool pending = true;
  };
  std::vector<Entry> all;

  void add(MsgId id, ProcId s, ProcId r) {
    all.push_back(Entry{id, s, r, true});
  }
  void retire(MsgId id) {
    for (Entry& e : all) {
      if (e.id == id) e.pending = false;
    }
  }
  [[nodiscard]] std::vector<MsgId> pending_to(ProcId r) const {
    std::vector<MsgId> out;
    for (const Entry& e : all) {
      if (e.pending && e.receiver == r) out.push_back(e.id);
    }
    return out;
  }
  [[nodiscard]] std::vector<MsgId> all_pending() const {
    std::vector<MsgId> out;
    for (const Entry& e : all) {
      if (e.pending) out.push_back(e.id);
    }
    return out;
  }
};

TEST(Arena, IterationOrderMatchesSeedIdOrderUnderChurn) {
  // Random interleaving of publication, per-id deliveries and, whenever
  // the arena drains, window-store id claims that move the watermark past
  // it. After
  // every mutation batch, every query must agree with the naive
  // ascending-id model — order included — and the arena must pass its
  // audit.
  const int n = 6;
  MessageBuffer buf(n);
  NaiveModel model;
  Rng rng(123);
  Message m;
  m.kind = 1;

  int claims = 0;
  for (int step = 0; step < 400; ++step) {
    // One sender publishes a run.
    const auto s = static_cast<ProcId>(rng.uniform_index(n));
    std::vector<StagedMessage> items;
    const int sends = 1 + static_cast<int>(rng.uniform_index(5));
    for (int k = 0; k < sends; ++k) {
      items.push_back({static_cast<ProcId>(rng.uniform_index(n)), m});
    }
    const MsgId first = buf.add_batch(s, items, 0, 1);
    for (std::size_t k = 0; k < items.size(); ++k) {
      model.add(first + static_cast<MsgId>(k), s, items[k].to);
    }
    // Deliver a random subset of what's pending, one id at a time; now and
    // then drain everything.
    const bool drain = rng.uniform_index(8) == 0;
    for (MsgId id : buf.all_pending_ids()) {
      if (drain || rng.uniform_index(3) == 0) {
        buf.mark_delivered(id);
        model.retire(id);
      }
    }
    // When the arena is empty, claim a window's worth of ids and settle
    // them.
    if (buf.pending_count() == 0) {
      const auto claimed = 1 + rng.uniform_index(9);
      (void)buf.claim_ids(claimed);
      buf.retire_claimed(claimed / 2, claimed - claimed / 2);
      ++claims;
    }

    EXPECT_EQ(buf.all_pending_ids(), model.all_pending());
    for (ProcId r = 0; r < n; ++r) {
      EXPECT_EQ(buf.pending_to_ids(r), model.pending_to(r));
    }
    EXPECT_EQ(buf.pending_count(), model.all_pending().size());
    ASSERT_NO_THROW(buf.audit()) << "step " << step;
  }
  EXPECT_GT(buf.total_sent(), 400u);
  EXPECT_GT(claims, 20);
}

TEST(Arena, IdIndexStaysBoundedPastTheOldSpillLimit) {
  // A long async run: more than 2^17 ids flow through one buffer while a
  // few stragglers published first stay pending throughout. The slot arena
  // and the id index are sized by the live messages, so both stay flat
  // after the first round, and the stragglers still resolve at the end.
  const int n = 4;
  MessageBuffer buf(n);
  Rng rng(99);
  Message m;
  std::vector<StagedMessage> stragglers;
  for (int k = 0; k < 8; ++k) {
    m.kind = 1000 + k;
    stragglers.push_back({static_cast<ProcId>(k % n), m});
  }
  const MsgId first_straggler = buf.add_batch(0, stragglers, 0, 1);

  std::vector<StagedMessage> batch;
  for (int k = 0; k < 64; ++k) {
    m.kind = k;
    batch.push_back({static_cast<ProcId>(k % n), m});
  }
  std::size_t slots_after_warmup = 0;
  std::size_t index_after_warmup = 0;
  std::vector<MsgId> ids(batch.size());
  for (int round = 0; buf.total_sent() <= (std::size_t{1} << 17) + 1000;
       ++round) {
    const MsgId first =
        buf.add_batch(static_cast<ProcId>(round % n), batch, 0, 1);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ids[k] = first + static_cast<MsgId>(k);
    }
    // Deliver the round in a random order (erases from all over the table).
    for (std::size_t k = ids.size(); k > 1; --k) {
      std::swap(ids[k - 1], ids[rng.uniform_index(k)]);
    }
    for (const MsgId id : ids) buf.mark_delivered(id);
    if (round == 0) {
      slots_after_warmup = buf.slot_capacity();
      index_after_warmup = buf.id_index_capacity();
    }
    ASSERT_EQ(buf.slot_capacity(), slots_after_warmup) << "round " << round;
    ASSERT_EQ(buf.id_index_capacity(), index_after_warmup)
        << "round " << round;
    if (round % 512 == 0) {
      ASSERT_NO_THROW(buf.audit()) << "round " << round;
    }
  }
  EXPECT_EQ(slots_after_warmup, stragglers.size() + batch.size());
  EXPECT_LE(index_after_warmup, 4 * slots_after_warmup);

  ASSERT_EQ(buf.pending_count(), stragglers.size());
  for (std::size_t k = 0; k < stragglers.size(); ++k) {
    const MsgId id = first_straggler + static_cast<MsgId>(k);
    ASSERT_TRUE(buf.is_pending(id));
    EXPECT_EQ(buf.get(id).payload.kind, 1000 + static_cast<int>(k));
    EXPECT_EQ(buf.get(id).receiver, stragglers[k].to);
    buf.mark_delivered(id);
    EXPECT_FALSE(buf.is_pending(id));
  }
  EXPECT_EQ(buf.pending_count(), 0u);
  EXPECT_NO_THROW(buf.audit());
}

TEST(Arena, RecycledSlotsKeepIdsDistinct) {
  // A slot reused by a later message must answer queries for the NEW id
  // only; the old id stays retired forever.
  MessageBuffer buf(2);
  Message m;
  m.kind = 1;
  const std::vector<StagedMessage> to1{{1, m}};
  const std::vector<StagedMessage> to0{{0, m}};
  const MsgId a = buf.add_batch(0, to1, 0, 1);
  buf.mark_delivered(a);
  const MsgId b = buf.add_batch(1, to0, 0, 1);  // reuses a's slot
  EXPECT_NE(a, b);
  EXPECT_FALSE(buf.is_pending(a));
  EXPECT_TRUE(buf.is_pending(b));
  EXPECT_THROW((void)buf.get(a), std::logic_error);
  EXPECT_EQ(buf.get(b).sender, 1);
  EXPECT_EQ(buf.slot_capacity(), 1u);
}

}  // namespace
}  // namespace aa::sim
