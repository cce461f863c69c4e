#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "protocols/byzantine.hpp"
#include "protocols/factory.hpp"
#include "protocols/reset_agreement.hpp"
#include "sim/window.hpp"

namespace aa::adversary {
namespace {

using protocols::ProtocolKind;
using sim::Execution;

Execution make_exec(int n, int t, std::uint64_t seed) {
  return Execution(protocols::make_processes(
                       ProtocolKind::Reset, t, protocols::split_inputs(n, 0.5)),
                   seed);
}

// Test-side replacement for the removed WindowAdversary::plan_window
// convenience: owns a fresh plan, runs the prepare lifecycle like the
// driver would, plans against the execution's collected window batch, and
// returns the filled plan for inspection.
sim::WindowPlan plan_once(sim::WindowAdversary& adv, const Execution& e,
                          int t) {
  adv.prepare(e.n(), t);
  sim::WindowPlan plan;
  plan.reset(e.n());
  adv.plan_window_into(e, e.window_batch(), plan);
  return plan;
}

// Sending phase of one window, batch collection armed like the driver's.
void send_all(Execution& e) {
  e.begin_window_batch();
  for (int p = 0; p < e.n(); ++p) e.sending_step(p);
}

TEST(FairAdversary, PlansFullDelivery) {
  const int n = 8;
  const int t = 1;
  Execution e = make_exec(n, t, 1);
  send_all(e);
  FairWindowAdversary fair;
  const sim::WindowPlan plan = plan_once(fair, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  EXPECT_TRUE(plan.resets.empty());
  for (const auto& order : plan.delivery_order)
    EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
}

TEST(SilencerAdversary, NeverDeliversFromSilenced) {
  const int n = 13;
  const int t = 2;
  Execution e = make_exec(n, t, 2);
  send_all(e);
  SilencerWindowAdversary silencer({0, 5});
  const sim::WindowPlan plan = plan_once(silencer, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  for (const auto& order : plan.delivery_order) {
    EXPECT_EQ(std::count(order.begin(), order.end(), 0), 0);
    EXPECT_EQ(std::count(order.begin(), order.end(), 5), 0);
    EXPECT_EQ(order.size(), static_cast<std::size_t>(n - 2));
  }
}

TEST(RandomAdversary, ProducesValidPlansAcrossWindows) {
  const int n = 10;
  const int t = 2;
  Execution e = make_exec(n, t, 3);
  RandomWindowAdversary rnd(t, 0.3, Rng(5));
  for (int w = 0; w < 20; ++w) {
    // Plans must be valid every window regardless of protocol state.
    e.begin_window_batch();
    const sim::WindowPlan plan = plan_once(rnd, e, t);
    EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
    EXPECT_LE(plan.resets.size(), static_cast<std::size_t>(t));
  }
}

TEST(ResetStormAdversary, ResetsExactlyTDistinct) {
  const int n = 19;
  const int t = 3;
  Execution e = make_exec(n, t, 4);
  ResetStormAdversary storm(t, Rng(7));
  send_all(e);
  const sim::WindowPlan plan = plan_once(storm, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  EXPECT_EQ(plan.resets.size(), static_cast<std::size_t>(t));
}

TEST(BalanceVotes, AlternatesWithinRound) {
  // 3 zeros (senders 0,1,2) + 3 ones (senders 3,4,5), one round.
  std::vector<std::tuple<sim::ProcId, int, int>> votes;
  for (int s = 0; s < 3; ++s) votes.emplace_back(s, 1, 0);
  for (int s = 3; s < 6; ++s) votes.emplace_back(s, 1, 1);
  const auto order = balance_votes(votes);
  ASSERT_EQ(order.size(), 6u);
  // Every prefix of length L carries at most ⌈L/2⌉ of either value.
  int c0 = 0;
  int c1 = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    (order[i] < 3 ? c0 : c1)++;
    const int limit = static_cast<int>(i / 2 + 1);
    EXPECT_LE(c0, limit) << "prefix " << i;
    EXPECT_LE(c1, limit) << "prefix " << i;
  }
}

TEST(BalanceVotes, MajorityFirstWhenUneven) {
  // 4 zeros, 2 ones: prefix of any length L has ≤ ⌈L/2⌉ ones (the scarce
  // value is spread out), though zeros eventually pile up.
  std::vector<std::tuple<sim::ProcId, int, int>> votes;
  for (int s = 0; s < 4; ++s) votes.emplace_back(s, 1, 0);
  for (int s = 4; s < 6; ++s) votes.emplace_back(s, 1, 1);
  const auto order = balance_votes(votes);
  // First element must be the majority value (a zero-voter id < 4).
  EXPECT_LT(order.front(), 4);
}

TEST(BalanceVotes, RoundsAscend) {
  std::vector<std::tuple<sim::ProcId, int, int>> votes;
  votes.emplace_back(0, 2, 0);  // round 2
  votes.emplace_back(1, 1, 1);  // round 1
  votes.emplace_back(2, 1, 0);
  const auto order = balance_votes(votes);
  ASSERT_EQ(order.size(), 3u);
  // Round-1 senders (1, 2) come before the round-2 sender (0).
  EXPECT_EQ(order.back(), 0);
}

TEST(SplitKeeper, PlanIsValidAndDeliversEveryone) {
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 6);
  send_all(e);
  SplitKeeperAdversary keeper;
  const sim::WindowPlan plan = plan_once(keeper, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  EXPECT_TRUE(plan.resets.empty());
  // S_i = [n]: only the order is adversarial.
  for (const auto& order : plan.delivery_order)
    EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
}

TEST(SplitKeeper, PreventsFirstWindowDecisionOnSplitInputs) {
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 8);
  SplitKeeperAdversary keeper;
  sim::run_acceptable_window(e, keeper, t);
  // A 6/6 split delivered in balanced order never reaches T3 = n − 3t = 6?
  // T3 = 6; balanced prefix of T1 = 8 gives exactly 4/4 → below T3 → no
  // decision, everyone flips a coin.
  EXPECT_EQ(e.decided_count(), 0);
}

TEST(SplitKeeper, SlowsDecisionRelativeToFair) {
  const int n = 16;
  const int t = 2;
  double fair_total = 0;
  double keeper_total = 0;
  const int trials = 10;
  for (std::uint64_t seed = 1; seed <= trials; ++seed) {
    {
      Execution e = make_exec(n, t, seed);
      FairWindowAdversary fair;
      fair_total += static_cast<double>(
          sim::run_until_first_decision(e, fair, t, 1000000));
    }
    {
      Execution e = make_exec(n, t, seed);
      SplitKeeperAdversary keeper;
      keeper_total += static_cast<double>(
          sim::run_until_first_decision(e, keeper, t, 1000000));
    }
  }
  EXPECT_GT(keeper_total, 2.0 * fair_total);
}

TEST(SplitKeeper, CannotBlockUnanimity) {
  const int n = 12;
  const int t = 2;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::unanimous_inputs(n, 0)),
              9);
  SplitKeeperAdversary keeper;
  sim::run_acceptable_window(e, keeper, t);
  EXPECT_EQ(e.decided_count(), n);
}

// ---- split-keeper: one plan per broadcast window ---------------------------

// The split-keeper's plan written from its definition, receiver by
// receiver: the receiver's pending 0/1 votes in balanced order, then the
// senders of its other pending messages, then everyone else.
sim::WindowPlan reference_split_plan(const Execution& e) {
  const int n = e.n();
  sim::WindowPlan plan;
  plan.reset(n);
  for (sim::ProcId i = 0; i < n; ++i) {
    std::vector<std::tuple<sim::ProcId, int, int>> votes;
    std::vector<sim::ProcId> others;
    for (const sim::Envelope& env : e.buffer().pending_to(i)) {
      if (env.payload.kind == protocols::kVoteKind &&
          (env.payload.value == 0 || env.payload.value == 1)) {
        votes.emplace_back(env.sender, env.payload.round, env.payload.value);
      } else {
        others.push_back(env.sender);
      }
    }
    std::vector<sim::ProcId>& order =
        plan.delivery_order[static_cast<std::size_t>(i)];
    order = balance_votes(votes);
    std::vector<bool> seen(static_cast<std::size_t>(n), false);
    for (const sim::ProcId s : order) seen[static_cast<std::size_t>(s)] = true;
    for (const sim::ProcId s : others) {
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = true;
        order.push_back(s);
      }
    }
    for (sim::ProcId s = 0; s < n; ++s) {
      if (!seen[static_cast<std::size_t>(s)]) order.push_back(s);
    }
  }
  return plan;
}

// Plan the current (already sent) window with `keeper`, check it against
// the reference, then deliver it and close the window. Returns whether
// the broadcast fast path applied.
bool plan_check_deliver(Execution& e, SplitKeeperAdversary& keeper,
                        sim::WindowPlan& plan, int& max_runs) {
  const sim::WindowBatch batch = e.window_batch();
  for (sim::ProcId s = 0; s < e.n(); ++s) {
    max_runs = std::max(max_runs, batch.broadcast_runs(s));
  }
  const bool shaped = SplitKeeperAdversary::broadcast_shaped(batch);
  keeper.plan_window_into(e, batch, plan);
  EXPECT_EQ(plan.delivery_order, reference_split_plan(e).delivery_order)
      << "window " << e.window();
  for (sim::ProcId i = 0; i < e.n(); ++i) {
    if (!e.crashed(i)) {
      e.deliver_plan_row(i, plan.delivery_order[static_cast<std::size_t>(i)]);
    }
  }
  e.end_window();
  return shaped;
}

TEST(SplitKeeper, BroadcastPlanEqualsPerReceiverPlan) {
  // Reset and forgetful stage votes; Ben-Or and Bracha stage no votes at
  // all, Bracha several broadcasts per step.
  const int n = 14;
  const int t = 2;
  for (const ProtocolKind kind :
       {ProtocolKind::Reset, ProtocolKind::Forgetful, ProtocolKind::BenOr,
        ProtocolKind::Bracha}) {
    int max_runs = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Execution e(protocols::make_processes(kind, t,
                                            protocols::split_inputs(n, 0.5)),
                  seed);
      SplitKeeperAdversary keeper;
      sim::WindowPlan plan;
      for (int w = 0; w < 25; ++w) {
        send_all(e);
        EXPECT_TRUE(plan_check_deliver(e, keeper, plan, max_runs))
            << protocols::protocol_kind_name(kind) << " window " << w;
      }
    }
    if (kind == ProtocolKind::Bracha) {
      EXPECT_GT(max_runs, 1) << "no multi-broadcast step exercised";
    }
  }
}

/// Votes two rounds ahead per step (k = 2 vote broadcasts), plus a
/// non-vote broadcast from every third processor (k = 3): the shared row
/// must balance several rounds and append the non-vote senders.
class TwoRoundVoter final : public sim::Process {
 public:
  TwoRoundVoter(sim::ProcId self, int input) : self_(self), input_(input) {}

  void on_start(sim::Outbox& out) override { stage(input_, 1 - input_, out); }
  // Once per window: on p0's second vote.
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override {
    if (env.sender != 0 || env.payload.kind != protocols::kVoteKind ||
        env.payload.round % 2 != 0) {
      return;
    }
    stage(static_cast<int>(rng.uniform_index(2)),
          static_cast<int>(rng.uniform_index(2)), out);
  }
  void on_reset() override {}
  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return sim::kBot; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return input_; }
  [[nodiscard]] const char* protocol_name() const override {
    return "two-round-voter";
  }

 private:
  void stage(int a, int b, sim::Outbox& out) {
    out.broadcast(protocols::make_vote(round_ + 1, a));
    out.broadcast(protocols::make_vote(round_ + 2, b));
    if (self_ % 3 == 0) {
      sim::Message note;
      note.kind = 7;
      note.round = round_;
      out.broadcast(note);
    }
    round_ += 2;
  }

  sim::ProcId self_;
  int input_;
  int round_ = 0;
};

TEST(SplitKeeper, MultiRoundBroadcastPlanEqualsPerReceiverPlan) {
  const int n = 11;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (sim::ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<TwoRoundVoter>(p, p % 2));
  }
  Execution e(std::move(procs), 8);
  SplitKeeperAdversary keeper;
  sim::WindowPlan plan;
  int max_runs = 0;
  for (int w = 0; w < 10; ++w) {
    send_all(e);
    EXPECT_TRUE(plan_check_deliver(e, keeper, plan, max_runs)) << w;
  }
  EXPECT_EQ(max_runs, 3);
}

TEST(SplitKeeper, MidWindowCrashKeepsBroadcastPlanExact) {
  // A crash before a sender's step empties its run (0 broadcasts); a crash
  // after the sending phase leaves its messages pending. Neither changes
  // what any receiver's list holds relative to the others, so the one-row
  // plan must stay exact.
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 21);
  SplitKeeperAdversary keeper;
  sim::WindowPlan plan;
  int max_runs = 0;
  for (int w = 0; w < 6; ++w) {
    e.begin_window_batch();
    if (w == 2) e.crash(4);  // before its sending step
    for (int p = 0; p < n; ++p) e.sending_step(p);
    if (w == 3) e.crash(7);  // after publication, before planning
    EXPECT_TRUE(plan_check_deliver(e, keeper, plan, max_runs)) << w;
  }
  EXPECT_TRUE(e.crashed(4) && e.crashed(7));
}

TEST(SplitKeeper, EquivocatorTakesPerReceiverPath) {
  // Byzantine equivocators stage send() runs: receivers hold different
  // values from them, so no single row can serve everyone.
  const int n = 13;
  const int t = 2;
  Execution e(protocols::make_byzantine_processes(
                  ProtocolKind::Reset, t, protocols::split_inputs(n, 0.5),
                  /*byz_count=*/2, protocols::ByzantineStrategy::Equivocate,
                  /*lie_seed=*/5),
              17);
  SplitKeeperAdversary keeper;
  sim::WindowPlan plan;
  int max_runs = 0;
  send_all(e);
  EXPECT_EQ(e.window_batch().broadcast_runs(0), -1);
  EXPECT_FALSE(plan_check_deliver(e, keeper, plan, max_runs));
  for (int w = 1; w < 12; ++w) {
    send_all(e);
    plan_check_deliver(e, keeper, plan, max_runs);
  }
}

TEST(SplitKeeper, OutOfOrderSendersTakePerReceiverPath) {
  // Senders publishing in descending id order void the shared row: list
  // order is no longer sender order.
  const int n = 10;
  const int t = 1;
  SplitKeeperAdversary keeper;
  sim::WindowPlan plan;
  int max_runs = 0;
  Execution d = make_exec(n, t, 34);
  for (int w = 0; w < 3; ++w) {
    d.begin_window_batch();
    for (int p = n - 1; p >= 0; --p) d.sending_step(p);
    ASSERT_GT(d.window_batch().size(), 0u);
    EXPECT_FALSE(plan_check_deliver(d, keeper, plan, max_runs)) << w;
  }
}

TEST(AdversaryNames, AreDistinct) {
  FairWindowAdversary a;
  SilencerWindowAdversary b({0});
  RandomWindowAdversary c(1, 0.0, Rng(1));
  ResetStormAdversary d(1, Rng(1));
  SplitKeeperAdversary e;
  const std::vector<std::string> names{a.name(), b.name(), c.name(), d.name(),
                                       e.name()};
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  }
}

}  // namespace
}  // namespace aa::adversary
