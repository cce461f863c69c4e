// Arena regression tests: the recycling MessageBuffer must keep live memory
// bounded over long horizons and preserve the append-only store's
// ascending-id iteration order exactly (checker reports depend on it),
// through both id tiers, lazy run delivery and window-edge sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

TEST(Arena, LiveSlotsStayBoundedAcross5kWindows) {
  const int n = 16;
  const int t = 2;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              7);
  adversary::SplitKeeperAdversary keeper;
  std::size_t capacity_after_warmup = 0;
  for (int w = 0; w < 5000; ++w) {
    run_acceptable_window(e, keeper, t);
    if (w == 99) capacity_after_warmup = e.buffer().slot_capacity();
  }
  // Every window ends empty (all of its messages delivered or dropped)...
  EXPECT_EQ(e.buffer().pending_count(), 0u);
  // ...so the arena's high-water mark is one window's n² burst, reached in
  // the first windows and never exceeded again — memory is independent of
  // the horizon even though 5000 · n² messages flowed through.
  EXPECT_EQ(e.buffer().slot_capacity(), capacity_after_warmup);
  EXPECT_LE(e.buffer().slot_capacity(),
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  EXPECT_EQ(e.buffer().total_sent(),
            5000u * static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
}

/// Reference model: an append-only log with a pending flag per message,
/// kept naive on purpose. The buffer holds one window at a time, so the
/// window-edge sweep is "every pending message is dropped".
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
  std::size_t drop_all() {
    std::size_t dropped = 0;
    for (Entry& e : all) {
      if (e.pending) ++dropped;
      e.pending = false;
    }
    return dropped;
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
  // Random interleaving of publication, per-id deliveries, lazy run
  // deliveries filtered by a random sender set, direct-index spills (the
  // async regime's long-lived ids) and window-edge sweeps. After every
  // mutation batch, every query must agree with the naive ascending-id
  // model — order included — and the arena must pass its audit.
  const int n = 6;
  MessageBuffer buf(n);
  NaiveModel model;
  Rng rng(123);
  Message m;
  m.kind = 1;

  std::int64_t window = 0;
  std::size_t dropped = 0;
  std::vector<std::uint64_t> stamp(n, 0);
  std::vector<std::int32_t> cursor(n, 0);
  for (int step = 0; step < 400; ++step) {
    // One sender publishes a run in the current window.
    const auto s = static_cast<ProcId>(rng.uniform_index(n));
    std::vector<StagedMessage> items;
    const int sends = 1 + static_cast<int>(rng.uniform_index(5));
    for (int k = 0; k < sends; ++k) {
      items.push_back({static_cast<ProcId>(rng.uniform_index(n)), m});
    }
    const MsgId first = buf.add_batch(s, items, window, 1);
    for (std::size_t k = 0; k < items.size(); ++k) {
      model.add(first + static_cast<MsgId>(k), s, items[k].to);
    }
    // Deliver a random subset of what's pending, one id at a time.
    for (MsgId id : buf.all_pending_ids()) {
      if (rng.uniform_index(4) == 0) {
        buf.mark_delivered(id);
        model.retire(id);
      }
    }
    // Lazily deliver one receiver's run from a random sender subset: the
    // run comes out grouped by sender (ascending), send order within.
    if (rng.uniform_index(3) == 0) {
      const auto r = static_cast<ProcId>(rng.uniform_index(n));
      const auto epoch = static_cast<std::uint64_t>(step + 1);
      for (ProcId q = 0; q < n; ++q) {
        if (rng.uniform_index(2) == 0) stamp[static_cast<std::size_t>(q)] = epoch;
      }
      std::vector<MsgId> expect;
      for (ProcId q = 0; q < n; ++q) {
        cursor[static_cast<std::size_t>(q)] =
            static_cast<std::int32_t>(expect.size());
        if (stamp[static_cast<std::size_t>(q)] != epoch) continue;
        for (const NaiveModel::Entry& e : model.all) {
          if (e.pending && e.receiver == r && e.sender == q) {
            expect.push_back(e.id);
          }
        }
      }
      std::vector<const Envelope*> views(expect.size());
      ASSERT_EQ(buf.deliver_window_run_to(r, stamp.data(), epoch, views,
                                          cursor.data()),
                static_cast<int>(expect.size()));
      for (std::size_t k = 0; k < expect.size(); ++k) {
        EXPECT_EQ(views[k]->id, expect[k]);
        model.retire(expect[k]);
      }
    }
    // Occasionally move the live ids to the straggler tier, or close the
    // window: the sweep drops everything still pending.
    if (rng.uniform_index(6) == 0) buf.spill_direct_index();
    if (rng.uniform_index(4) == 0) {
      const std::size_t want = model.drop_all();
      EXPECT_EQ(buf.drop_pending(), want);
      dropped += want;
      ++window;
    }

    EXPECT_EQ(buf.all_pending_ids(), model.all_pending());
    for (ProcId r = 0; r < n; ++r) {
      EXPECT_EQ(buf.pending_to_ids(r), model.pending_to(r));
    }
    EXPECT_EQ(buf.pending_count(), model.all_pending().size());
    EXPECT_EQ(buf.dropped_count(), dropped);
    ASSERT_NO_THROW(buf.audit()) << "step " << step;
  }
  EXPECT_GT(buf.total_sent(), 400u);
  EXPECT_GT(window, 50);
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
