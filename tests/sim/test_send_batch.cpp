// Bulk publication pipelines (MessageBuffer::add_batch for the async
// arena; the window store's runs + incremental pair index +
// Execution::deliver_plan_row for the window model):
//  * add_batch runs get consecutive ids in staging order, also when the
//    run straddles an arena recycling boundary (free list + growth), and a
//    bad receiver anywhere in the run rejects the whole run;
//  * window runs never touch the arena;
//  * the epoch-stamped pair counters never leak counts across windows
//    (stale rows read as empty without any per-window reset);
//  * deliver_plan_row's gather produces bit-identical decisions
//    and tallies to the per-message receiving_step path for Fair /
//    Silencer / SplitKeeper at n = 32;
//  * adversarially (non-ascending) ordered rows, also after a crash
//    mid-window, come out of the gather in plan order: the delivery ORDER is
//    the plan order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

// ---------------------------------------------------------------------------
// add_batch
// ---------------------------------------------------------------------------

TEST(AddBatch, SlotRunStraddlesRecyclingBoundary) {
  // Arena with exactly 3 recycled holes; a 5-message run must consume the
  // whole free list, then grow — and every query must still be exact.
  const int n = 4;
  MessageBuffer buf(n);
  Message m;
  m.kind = 1;
  const std::vector<StagedMessage> seed_run(3, StagedMessage{1, m});
  const MsgId seed_first = buf.add_batch(0, seed_run, 0, 1);
  std::vector<MsgId> seed_ids{seed_first, seed_first + 1, seed_first + 2};
  for (MsgId id : seed_ids) buf.mark_delivered(id);
  ASSERT_EQ(buf.slot_capacity(), 3u);

  std::vector<StagedMessage> items;
  for (int k = 0; k < 5; ++k) {
    items.push_back({static_cast<ProcId>(k % n), m});
  }
  const MsgId first = buf.add_batch(2, items, 1, 7);
  EXPECT_EQ(first, 3);
  EXPECT_EQ(buf.slot_capacity(), 5u);  // 3 recycled + 2 fresh
  EXPECT_EQ(buf.pending_count(), 5u);
  const std::vector<MsgId> expect_ids{3, 4, 5, 6, 7};
  EXPECT_EQ(buf.all_pending_ids(), expect_ids);
  for (int k = 0; k < 5; ++k) {
    const Envelope& env = buf.get(first + k);
    EXPECT_EQ(env.window, 1);
    EXPECT_EQ(env.chain, 7);
    EXPECT_EQ(env.receiver, static_cast<ProcId>(k % n));
  }
  // Old ids stay retired even though their slots were reused.
  for (MsgId id : seed_ids) EXPECT_FALSE(buf.is_pending(id));
}

TEST(AddBatch, EmptyRunAndBadReceiverAreAtomic) {
  MessageBuffer buf(3);
  Message m;
  EXPECT_EQ(buf.add_batch(0, {}, 0, 1), 0);
  EXPECT_EQ(buf.total_sent(), 0u);
  // A bad receiver anywhere in the run is rejected before ANY item lands.
  std::vector<StagedMessage> items{{0, m}, {7, m}};
  EXPECT_THROW(buf.add_batch(0, items, 0, 1), std::invalid_argument);
  EXPECT_EQ(buf.total_sent(), 0u);
  EXPECT_EQ(buf.pending_count(), 0u);
}

TEST(AddBatch, FairWindowsNeverTouchTheArena) {
  // The window model publishes into the window store: 5k fair windows
  // (every message delivered) leave the arena empty and unallocated, while
  // the buffer's id space and counters still cover every message.
  const int n = 16;
  const int t = 2;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              7);
  adversary::FairWindowAdversary fair;
  for (int w = 0; w < 5000; ++w) run_acceptable_window(e, fair, t);
  EXPECT_EQ(e.buffer().pending_count(), 0u);
  EXPECT_EQ(e.buffer().slot_reserve(), 0u);
  EXPECT_EQ(e.buffer().total_sent(),
            5000u * static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  EXPECT_EQ(e.buffer().delivered_count(), e.buffer().total_sent());
  EXPECT_EQ(e.buffer().dropped_count(), 0u);
}

// ---------------------------------------------------------------------------
// Broadcast-shaped runs
// ---------------------------------------------------------------------------

TEST(OutboxBroadcastRuns, CountsWholeBroadcastsUntilASend) {
  Outbox out(4);
  Message m;
  m.kind = 1;
  EXPECT_EQ(out.broadcast_runs(), 0);
  out.broadcast(m);
  out.broadcast(m);
  EXPECT_EQ(out.broadcast_runs(), 2);
  out.send(1, m);  // a point-to-point item voids the shape for good
  EXPECT_EQ(out.broadcast_runs(), -1);
  out.broadcast(m);
  EXPECT_EQ(out.broadcast_runs(), -1);
  out.clear();
  EXPECT_EQ(out.broadcast_runs(), 0);
  out.send(0, m);
  EXPECT_EQ(out.broadcast_runs(), -1);
  out.clear();
  out.broadcast(m);
  EXPECT_EQ(out.broadcast_runs(), 1);
}

/// Stages one send() at start and broadcasts once per received message.
class SendThenBroadcast final : public Process {
 public:
  void on_start(Outbox& out) override { out.send(0, Message{}); }
  void on_receive(const Envelope& /*env*/, Rng& /*rng*/, Outbox& out) override {
    out.broadcast(Message{});
  }
  void on_reset() override {}
  [[nodiscard]] int input() const override { return 0; }
  [[nodiscard]] int output() const override { return kBot; }
  [[nodiscard]] int round() const override { return 0; }
  [[nodiscard]] int estimate() const override { return 0; }
  [[nodiscard]] const char* protocol_name() const override {
    return "send-then-broadcast";
  }
};

TEST(OutboxBroadcastRuns, ResettingStepAndCrashResetTheCount) {
  const int n = 3;
  std::vector<std::unique_ptr<Process>> procs;
  for (int p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<SendThenBroadcast>());
  }
  Execution e(std::move(procs), 1);
  // Window 0: p0's send() run is erased by a reset; p1 publishes its send()
  // run, and delivering it makes p0 stage one broadcast.
  e.begin_window_batch();
  e.resetting_step(0);
  e.sending_step(1);
  EXPECT_EQ(e.window_batch().broadcast_runs(1), -1);
  e.receiving_step(e.window_batch().from_to(1, 0).front());
  e.crash(2);  // p2's staged send() run is erased as well
  e.end_window();
  // Window 1: p0's run is whole broadcasts again; p2 publishes nothing.
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  const WindowBatch batch = e.window_batch();
  EXPECT_EQ(batch.broadcast_runs(0), 1);
  EXPECT_EQ(batch.broadcast_runs(2), 0);
  for (ProcId r = 0; r < n; ++r) {
    ASSERT_EQ(batch.from_to(0, r).size(), 1u);
    EXPECT_EQ(batch.envelope(batch.from_to(0, r)[0]).receiver, r);
  }
}

// Every (sender, receiver) slice of the pair index equals the window's ids
// for that pair in send order, read off the envelopes one by one; the
// counts agree with it, and a sender with broadcast_runs k has exactly k
// messages to every receiver.
void expect_pair_index_matches_envelopes(const WindowBatch& batch) {
  const int n = batch.n();
  std::vector<std::int32_t> to_total(static_cast<std::size_t>(n), 0);
  for (ProcId s = 0; s < n; ++s) {
    const int k = batch.broadcast_runs(s);
    for (ProcId r = 0; r < n; ++r) {
      std::vector<MsgId> listed;
      for (const MsgId id : batch.ids()) {
        const Envelope env = batch.envelope(id);
        if (env.sender == s && env.receiver == r) listed.push_back(env.id);
      }
      EXPECT_EQ(std::vector<MsgId>(batch.from_to(s, r).begin(),
                                   batch.from_to(s, r).end()),
                listed)
          << "sender " << s << " receiver " << r;
      EXPECT_EQ(batch.count(s, r), static_cast<std::int32_t>(listed.size()));
      if (k >= 0) {
        EXPECT_EQ(batch.count(s, r), k);
      }
      to_total[static_cast<std::size_t>(r)] +=
          static_cast<std::int32_t>(listed.size());
    }
  }
  for (ProcId r = 0; r < n; ++r) {
    EXPECT_EQ(batch.count_to(r), to_total[static_cast<std::size_t>(r)]);
  }
}

/// Stages one send() run at start: the given receivers, in the given
/// order (repeats allowed).
class StagedSends final : public Process {
 public:
  explicit StagedSends(std::vector<ProcId> order) : order_(std::move(order)) {}
  void on_start(Outbox& out) override {
    for (std::size_t j = 0; j < order_.size(); ++j) {
      Message m;
      m.aux = static_cast<std::int32_t>(j);
      out.send(order_[j], m);
    }
  }
  void on_receive(const Envelope& /*env*/, Rng& /*rng*/,
                  Outbox& /*out*/) override {}
  void on_reset() override {}
  [[nodiscard]] int input() const override { return 0; }
  [[nodiscard]] int output() const override { return kBot; }
  [[nodiscard]] int round() const override { return 0; }
  [[nodiscard]] int estimate() const override { return 0; }
  [[nodiscard]] const char* protocol_name() const override {
    return "staged-sends";
  }

 private:
  std::vector<ProcId> order_;
};

TEST(WindowBatchIndex, BroadcastRunsMatchReceiverGrouping) {
  // Multi-broadcast runs (Bracha stages several per step).
  const int n = 7;
  const int t = 1;
  Execution e(protocols::make_processes(ProtocolKind::Bracha, t,
                                        protocols::split_inputs(n, 0.5)),
              13);
  int multi = 0;
  for (int w = 0; w < 6; ++w) {
    SCOPED_TRACE("bracha window " + std::to_string(w));
    e.begin_window_batch();
    for (ProcId p = 0; p < n; ++p) e.sending_step(p);
    const WindowBatch batch = e.window_batch();
    for (ProcId s = 0; s < n; ++s) {
      if (batch.broadcast_runs(s) > 1) ++multi;
    }
    expect_pair_index_matches_envelopes(batch);
    for (ProcId i = 0; i < n; ++i) {
      std::vector<ProcId> all;
      for (ProcId s = 0; s < n; ++s) all.push_back(s);
      e.deliver_plan_row(i, all);
    }
    e.end_window();
  }
  EXPECT_GT(multi, 0);

  // send() runs in shuffled receiver order with repeated receivers (0 to 3
  // copies each, so some pairs are empty): the counting sort that groups a
  // run by receiver must keep each pair's messages in staging order.
  std::vector<std::unique_ptr<Process>> procs;
  Rng rng(29);
  for (ProcId p = 0; p < n; ++p) {
    std::vector<ProcId> order;
    for (ProcId r = 0; r < n; ++r) {
      order.insert(order.end(), static_cast<std::size_t>((r + p) % 4), r);
    }
    for (std::size_t j = order.size(); j > 1; --j) {
      std::swap(order[j - 1], order[rng.uniform_index(j)]);
    }
    procs.push_back(std::make_unique<StagedSends>(std::move(order)));
  }
  Execution shuffled(std::move(procs), 3);
  shuffled.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) shuffled.sending_step(p);
  const WindowBatch batch = shuffled.window_batch();
  for (ProcId s = 0; s < n; ++s) {
    EXPECT_EQ(batch.broadcast_runs(s), -1);
    for (ProcId r = 0; r < n; ++r) {
      // Staging indices (carried in aux) ascend within every pair.
      std::int32_t last = -1;
      for (const MsgId id : batch.from_to(s, r)) {
        const std::int32_t j = batch.envelope(id).payload.aux;
        EXPECT_GT(j, last) << "sender " << s << " receiver " << r;
        last = j;
      }
    }
  }
  expect_pair_index_matches_envelopes(batch);
}

// ---------------------------------------------------------------------------
// Epoch-stamped pair counters
// ---------------------------------------------------------------------------

TEST(WindowBatchIndex, CountersDoNotLeakAcrossWindows) {
  const int n = 8;
  const int t = 1;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              5);
  // Window 0: everyone broadcasts its round-1 vote (n messages each).
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  {
    const WindowBatch batch = e.window_batch();
    EXPECT_EQ(batch.size(), static_cast<std::size_t>(n) * n);
    for (ProcId s = 0; s < n; ++s) {
      for (ProcId r = 0; r < n; ++r) {
        EXPECT_EQ(batch.count(s, r), 1);
        ASSERT_EQ(batch.from_to(s, r).size(), 1u);
        EXPECT_EQ(batch.envelope(batch.from_to(s, r)[0]).sender, s);
      }
      EXPECT_EQ(batch.count_to(s), n);
    }
  }
  e.end_window();

  // Window 1: nothing was delivered, so nobody has anything staged — every
  // row of the fresh index must read empty WITHOUT any reset having run.
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  {
    const WindowBatch batch = e.window_batch();
    EXPECT_EQ(batch.size(), 0u);
    for (ProcId s = 0; s < n; ++s) {
      for (ProcId r = 0; r < n; ++r) {
        EXPECT_EQ(batch.count(s, r), 0);
        EXPECT_TRUE(batch.from_to(s, r).empty());
      }
      EXPECT_EQ(batch.count_to(s), 0);
    }
  }
  e.end_window();

  // Window 2 after a real delivery round: counts reflect ONLY the new
  // batch (stale window-0 rows must not shine through).
  adversary::FairWindowAdversary fair;
  const int deliveries = run_acceptable_window(e, fair, t);
  EXPECT_EQ(deliveries, 0);  // window 2's batch was empty
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  const WindowBatch batch = e.window_batch();
  EXPECT_EQ(batch.size(), 0u);
  for (ProcId s = 0; s < n; ++s) EXPECT_EQ(batch.count_to(s), 0);
}

// ---------------------------------------------------------------------------
// deliver_plan_row fast path vs the per-message reference driver
// ---------------------------------------------------------------------------

/// Reference window driver: identical phases, but every delivery is one
/// receiving_step (per-id buffer lookups, one virtual on_receive each) —
/// the per-message path the fast path must reproduce bit for bit.
int run_reference_window(Execution& exec, WindowAdversary& adv, int t,
                         WindowPlan& plan) {
  const int n = exec.n();
  exec.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) exec.sending_step(p);
  adv.prepare(n, t);
  plan.reset(n);
  adv.plan_window_into(exec, exec.window_batch(), plan);
  validate_window_plan(plan, n, t);
  const WindowBatch batch = exec.window_batch();
  int deliveries = 0;
  for (ProcId i = 0; i < n; ++i) {
    if (exec.crashed(i)) continue;
    for (ProcId s : plan.delivery_order[static_cast<std::size_t>(i)]) {
      for (MsgId id : batch.from_to(s, i)) {
        exec.receiving_step(id);
        ++deliveries;
      }
    }
  }
  for (ProcId p : plan.resets) exec.resetting_step(p);
  exec.end_window();
  return deliveries;
}

void expect_same_outcome(const Execution& a, const Execution& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.step_count(), b.step_count());
  EXPECT_EQ(a.decided_count(), b.decided_count());
  EXPECT_EQ(a.buffer().delivered_count(), b.buffer().delivered_count());
  EXPECT_EQ(a.buffer().dropped_count(), b.buffer().dropped_count());
  EXPECT_EQ(a.total_resets(), b.total_resets());
  for (ProcId p = 0; p < a.n(); ++p) {
    EXPECT_EQ(a.output(p), b.output(p)) << "proc " << p;
    EXPECT_EQ(a.process(p).round(), b.process(p).round()) << "proc " << p;
    EXPECT_EQ(a.process(p).estimate(), b.process(p).estimate())
        << "proc " << p;
    EXPECT_EQ(a.chain_depth(p), b.chain_depth(p)) << "proc " << p;
  }
  // Decisions agree in (proc, value, window); the documented batch-path
  // divergence is only the step/chain stamp granularity inside a run.
  ASSERT_EQ(a.decisions().size(), b.decisions().size());
  for (std::size_t i = 0; i < a.decisions().size(); ++i) {
    EXPECT_EQ(a.decisions()[i].proc, b.decisions()[i].proc);
    EXPECT_EQ(a.decisions()[i].value, b.decisions()[i].value);
    EXPECT_EQ(a.decisions()[i].window, b.decisions()[i].window);
  }
}

Execution make_exec(ProtocolKind kind, int n, int t, std::uint64_t seed) {
  return Execution(
      protocols::make_processes(kind, t, protocols::split_inputs(n, 0.5)),
      seed);
}

TEST(DeliverPlanRow, FastPathMatchesPerMessagePathAtN32) {
  const int n = 32;
  const int t = 5;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // Fair: every row ascending + full cover.
    {
      Execution fast = make_exec(ProtocolKind::Reset, n, t, seed);
      Execution ref = make_exec(ProtocolKind::Reset, n, t, seed);
      adversary::FairWindowAdversary fair_a;
      adversary::FairWindowAdversary fair_b;
      WindowPlan plan;
      for (int w = 0; w < 40; ++w) {
        run_acceptable_window(fast, fair_a, t);
        run_reference_window(ref, fair_b, t, plan);
      }
      expect_same_outcome(fast, ref);
    }
    // Silencer: ascending partial cover.
    {
      std::vector<ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(2 * i);
      Execution fast = make_exec(ProtocolKind::Forgetful, n, t, seed);
      Execution ref = make_exec(ProtocolKind::Forgetful, n, t, seed);
      adversary::SilencerWindowAdversary sil_a(silenced);
      adversary::SilencerWindowAdversary sil_b(silenced);
      WindowPlan plan;
      for (int w = 0; w < 40; ++w) {
        run_acceptable_window(fast, sil_a, t);
        run_reference_window(ref, sil_b, t, plan);
      }
      expect_same_outcome(fast, ref);
    }
    // SplitKeeper: alternating vote order, gathered in plan order.
    {
      Execution fast = make_exec(ProtocolKind::Reset, n, t, seed);
      Execution ref = make_exec(ProtocolKind::Reset, n, t, seed);
      adversary::SplitKeeperAdversary keep_a;
      adversary::SplitKeeperAdversary keep_b;
      WindowPlan plan;
      for (int w = 0; w < 40; ++w) {
        run_acceptable_window(fast, keep_a, t);
        run_reference_window(ref, keep_b, t, plan);
      }
      expect_same_outcome(fast, ref);
    }
  }
}

TEST(DeliverPlanRow, NonAscendingRowDeliversInPlanOrder) {
  // A descending row inverts id order; the gather must still emit exactly
  // the plan order — observable through the recorded event sequence.
  const int n = 6;
  const int t = 1;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              3, ExecutionConfig{/*record_events=*/true});
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  const WindowBatch batch = e.window_batch();
  std::vector<ProcId> descending;
  for (ProcId s = n - 1; s >= 0; --s) descending.push_back(s);
  std::vector<MsgId> expected;
  for (ProcId s : descending) {
    for (MsgId id : batch.from_to(s, /*r=*/2)) expected.push_back(id);
  }
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(n));
  const int delivered = e.deliver_plan_row(2, descending);
  EXPECT_EQ(delivered, n);
  std::vector<MsgId> seen;
  for (const Event& ev : e.events()) {
    if (ev.kind == StepKind::Receive) seen.push_back(ev.msg);
  }
  EXPECT_EQ(seen, expected);  // descending sender blocks, not id order
}

TEST(DeliverPlanRow, CrashMidWindowDescendingRowsStayExact) {
  // Crash a processor BETWEEN the sending phase and delivery: its
  // published messages stay deliverable, it takes no receiving steps, and
  // a non-ascending row over the remaining senders must still deliver in
  // plan order. Mirrored against the per-message reference.
  const int n = 12;
  const int t = 2;
  const ProcId crashed = 3;
  Execution fast = make_exec(ProtocolKind::Reset, n, t, 11);
  Execution ref = make_exec(ProtocolKind::Reset, n, t, 11);

  auto drive = [&](Execution& e, bool batched) {
    e.begin_window_batch();
    for (ProcId p = 0; p < n; ++p) e.sending_step(p);
    e.crash(crashed);  // mid-window: after publication, before delivery
    const WindowBatch batch = e.window_batch();
    // Rows: receiver parity picks ascending or descending order so both
    // see the crash.
    for (ProcId i = 0; i < n; ++i) {
      if (e.crashed(i)) continue;
      std::vector<ProcId> row;
      if (i % 2 == 0) {
        for (ProcId s = 0; s < n; ++s) row.push_back(s);
      } else {
        for (ProcId s = n - 1; s >= 0; --s) row.push_back(s);
      }
      if (batched) {
        e.deliver_plan_row(i, row);
      } else {
        for (ProcId s : row) {
          for (MsgId id : batch.from_to(s, i)) e.receiving_step(id);
        }
      }
    }
    e.end_window();
  };
  drive(fast, /*batched=*/true);
  drive(ref, /*batched=*/false);
  expect_same_outcome(fast, ref);
  // The crashed processor's inbox was dropped at the window edge, not
  // delivered.
  EXPECT_GT(fast.buffer().dropped_count(), 0u);
  EXPECT_EQ(fast.buffer().pending_count(), 0u);
}

}  // namespace
}  // namespace aa::sim
