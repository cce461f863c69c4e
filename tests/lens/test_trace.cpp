#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"
#include "lens/accountability.hpp"
#include "lens/trace.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::lens {
namespace {

core::Experiment window_spec(int n, int t, bool lens = true) {
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = 400;
  spec.stop = core::StopCondition::kAllDecided;
  spec.lens = lens;
  return spec;
}

// ---- capture under a real engine run ---------------------------------------

TEST(WindowTrace, FairRunTalliesAreCleanAndComplete) {
  const int n = 8;
  const int t = 1;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  adversary::FairWindowAdversary fair;
  const core::WindowRunResult r = runner.run_window(fair, 42, scratch);
  ASSERT_TRUE(r.all_decided);
  ASSERT_TRUE(scratch.trace.has_value());
  const WindowTrace& trace = *scratch.trace;

  EXPECT_EQ(trace.n(), n);
  EXPECT_EQ(trace.deciders(), n);
  for (sim::ProcId s = 0; s < n; ++s) {
    EXPECT_GT(trace.sent(s), 0) << "sender " << s;
    EXPECT_EQ(trace.equivocations(s), 0) << "sender " << s;
    // Fair delivery: nothing is ever swept away undelivered.
    EXPECT_EQ(trace.suppressed_total(s), 0) << "sender " << s;
    EXPECT_GT(trace.delivered_total(s), 0) << "sender " << s;
    // Every decider had heard every sender — full confirmation evidence.
    EXPECT_EQ(trace.confirm_count(s), n) << "sender " << s;
    EXPECT_GE(trace.decision_window(s), 0) << "proc " << s;
    for (sim::ProcId rcv = 0; rcv < n; ++rcv) {
      EXPECT_GE(trace.first_heard_window(s, rcv), 0);
      EXPECT_GE(trace.first_heard_step(s, rcv), 0);
    }
  }
}

TEST(WindowTrace, BeginTrialClearsPreviousTallies) {
  const core::Runner runner(window_spec(6, 1));
  core::WorkerScratch scratch;
  adversary::FairWindowAdversary fair;
  (void)runner.run_window(fair, 1, scratch);
  ASSERT_TRUE(scratch.trace.has_value());
  ASSERT_GT(scratch.trace->sent(0), 0);
  // Re-arming (what Runner::prepare does per trial) must zero everything.
  scratch.trace->begin_trial(6);
  for (sim::ProcId s = 0; s < 6; ++s) {
    EXPECT_EQ(scratch.trace->sent(s), 0);
    EXPECT_EQ(scratch.trace->delivered_total(s), 0);
    EXPECT_EQ(scratch.trace->suppressed_total(s), 0);
    EXPECT_EQ(scratch.trace->decision_window(s), -1);
  }
  EXPECT_EQ(scratch.trace->deciders(), 0);
}

TEST(WindowTrace, LensOffProducesIdenticalRunResult) {
  const int n = 8;
  const int t = 1;
  const core::Runner with(window_spec(n, t, /*lens=*/true));
  const core::Runner without(window_spec(n, t, /*lens=*/false));
  for (const std::uint64_t seed : {7ULL, 11ULL, 99ULL}) {
    core::WorkerScratch sa;
    core::WorkerScratch sb;
    adversary::SplitKeeperAdversary adv_a;
    adversary::SplitKeeperAdversary adv_b;
    const core::WindowRunResult a = with.run_window(adv_a, seed, sa);
    const core::WindowRunResult b = without.run_window(adv_b, seed, sb);
    EXPECT_EQ(a.decided, b.decided);
    EXPECT_EQ(a.all_decided, b.all_decided);
    EXPECT_EQ(a.decision, b.decision);
    EXPECT_EQ(a.windows_total, b.windows_total);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.windows_to_first, b.windows_to_first);
    EXPECT_FALSE(sb.trace.has_value());
  }
}

// ---- lens hooks vs the window store ----------------------------------------

TEST(WindowTrace, HookCountsExactUnderRecyclingAndRangeRetirement) {
  // 200 windows of n×n publication cycle through the window store's
  // recycled run vectors, each window on a fresh id range. The lens must
  // still account for every message exactly once: published = delivered
  // + suppressed, per sender and in total.
  const int n = 8;
  const int t = 1;
  WindowTrace trace;
  trace.begin_trial(n);
  sim::ExecutionConfig cfg;
  cfg.lens = &trace;
  sim::Execution e(
      protocols::make_processes(protocols::ProtocolKind::Reset, t,
                                protocols::split_inputs(n, 0.5)),
      9, cfg);
  adversary::SilencerWindowAdversary sil({0});  // sender 0 always swept
  for (int w = 0; w < 200; ++w) sim::run_acceptable_window(e, sil, t);
  ASSERT_EQ(e.buffer().pending_count(), 0u);
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t suppressed = 0;
  for (sim::ProcId s = 0; s < n; ++s) {
    sent += trace.sent(s);
    delivered += trace.delivered_total(s);
    suppressed += trace.suppressed_total(s);
    EXPECT_EQ(trace.sent(s),
              trace.delivered_total(s) + trace.suppressed_total(s))
        << "sender " << s;
  }
  EXPECT_EQ(static_cast<std::size_t>(sent), e.buffer().total_sent());
  EXPECT_EQ(static_cast<std::size_t>(delivered),
            e.buffer().delivered_count());
  EXPECT_EQ(static_cast<std::size_t>(suppressed),
            e.buffer().dropped_count());
  // The silenced sender's every message was a sweep-time suppression.
  EXPECT_EQ(trace.delivered_total(0), 0);
  EXPECT_EQ(trace.suppressed_total(0), trace.sent(0));
}

TEST(WindowTrace, SuppressHooksFireOncePerUndeliveredWindowMessage) {
  // One window delivered piecemeal — a per-id receiving step, a row with a
  // repeated sender, a row over an already-delivered message — and closed
  // with receivers 2.. never served. on_suppress must fire exactly once
  // per undelivered (sender → receiver) message, and never for one that
  // was delivered.
  const int n = 6;
  const int t = 1;
  WindowTrace trace;
  sim::ExecutionConfig cfg;
  cfg.lens = &trace;
  sim::Execution e(
      protocols::make_processes(protocols::ProtocolKind::Bracha, t,
                                protocols::split_inputs(n, 0.5)),
      5, cfg);
  e.begin_window_batch();
  for (sim::ProcId p = 0; p < n; ++p) e.sending_step(p);
  const sim::WindowBatch batch = e.window_batch();
  std::vector<std::int64_t> expect(static_cast<std::size_t>(n * n), 0);
  for (sim::ProcId s = 0; s < n; ++s) {
    for (sim::ProcId r = 0; r < n; ++r) {
      expect[static_cast<std::size_t>(s * n + r)] = batch.count(s, r);
    }
  }
  e.receiving_step(batch.from_to(2, 1)[0]);
  --expect[static_cast<std::size_t>(2 * n + 1)];
  const std::vector<sim::ProcId> repeated{3, 1, 3};
  e.deliver_plan_row(0, repeated);
  expect[static_cast<std::size_t>(3 * n + 0)] = 0;
  expect[static_cast<std::size_t>(1 * n + 0)] = 0;
  std::vector<sim::ProcId> all;
  for (sim::ProcId s = 0; s < n; ++s) all.push_back(s);
  e.deliver_plan_row(1, all);
  for (sim::ProcId s = 0; s < n; ++s) {
    expect[static_cast<std::size_t>(s * n + 1)] = 0;
  }
  e.end_window();

  std::int64_t suppressed = 0;
  for (sim::ProcId s = 0; s < n; ++s) {
    for (sim::ProcId r = 0; r < n; ++r) {
      EXPECT_EQ(trace.suppressed(s, r), expect[static_cast<std::size_t>(s * n + r)])
          << s << "->" << r;
      suppressed += trace.suppressed(s, r);
    }
    EXPECT_EQ(trace.sent(s),
              trace.delivered_total(s) + trace.suppressed_total(s))
        << "sender " << s;
  }
  EXPECT_GT(suppressed, 0);
  EXPECT_EQ(static_cast<std::size_t>(suppressed), e.buffer().dropped_count());
  EXPECT_EQ(e.buffer().pending_count(), 0u);
}

// ---- targeted censorship ---------------------------------------------------

TEST(TargetedCensorAdversary, StaysAcceptableAndStarvesOnlyTheTarget) {
  const int n = 8;
  const int t = 1;
  const sim::ProcId target = 2;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  adversary::TargetedCensorAdversary censor(
      std::make_unique<adversary::FairWindowAdversary>(), target);
  EXPECT_EQ(censor.target(), target);
  // The driver re-validates every kUpdated plan (the censor always answers
  // kUpdated), so a completed run IS the Definition-1 acceptance proof.
  const core::WindowRunResult r = runner.run_window(censor, 5, scratch);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  ASSERT_TRUE(scratch.trace.has_value());
  const WindowTrace& trace = *scratch.trace;
  // Fair rows have full slack, so the censor erased the target everywhere:
  // nothing from the target landed, everything else flowed untouched.
  EXPECT_EQ(trace.delivered_total(target), 0);
  EXPECT_GT(trace.suppressed_total(target), 0);
  for (sim::ProcId s = 0; s < n; ++s) {
    if (s == target) continue;
    EXPECT_GT(trace.delivered_total(s), 0) << "sender " << s;
    EXPECT_EQ(trace.suppressed_total(s), 0) << "sender " << s;
  }
}

TEST(TargetedCensorAdversary, RespectsTheFloorWhenRowsHaveNoSlack) {
  // Silencer already runs rows at the n − t floor: the censor must leave
  // such rows alone (erasing would break Definition 1), so the run still
  // validates and the target still gets through on floor rows.
  const int n = 16;  // canonical thresholds need 6t < n
  const int t = 2;
  const sim::ProcId target = 15;  // not among the silencer's silenced [0, t)
  std::vector<sim::ProcId> silenced;
  for (int i = 0; i < t; ++i) silenced.push_back(i);
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  adversary::TargetedCensorAdversary censor(
      std::make_unique<adversary::SilencerWindowAdversary>(silenced), target);
  const core::WindowRunResult r = runner.run_window(censor, 3, scratch);
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(scratch.trace.has_value());
  // Silencer rows are exactly the non-silenced n − t senders — no slack —
  // so the target is delivered, not suppressed.
  EXPECT_GT(scratch.trace->delivered_total(target), 0);
  EXPECT_EQ(scratch.trace->suppressed_total(target), 0);
}

// ---- blame report ground truth ---------------------------------------------

TEST(Accountability, BlamesTheInjectedCensorTarget) {
  const int n = 8;
  const int t = 1;
  const sim::ProcId target = 2;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    adversary::TargetedCensorAdversary censor(
        std::make_unique<adversary::FairWindowAdversary>(), target);
    (void)runner.run_window(censor, seed, scratch);
    ASSERT_TRUE(scratch.trace.has_value());
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  ASSERT_EQ(rep.n, n);
  EXPECT_EQ(rep.blamed_censored, (std::vector<sim::ProcId>{target}));
  EXPECT_TRUE(rep.blamed_equivocators.empty());
  EXPECT_GT(rep.senders[static_cast<std::size_t>(target)].censorship_score,
            0.1);
}

TEST(WindowTrace, EquivocationCountMatchesPairwiseDefinition) {
  // A message equivocates when an EARLIER message of its run has the same
  // (round, kind, aux) key and the other bit value; non-bit values never
  // take part. Random runs over a small key space, against that pairwise
  // definition evaluated directly.
  const int n = 5;
  WindowTrace trace;
  trace.begin_trial(n);
  Rng rng(8);
  std::vector<std::int64_t> expect(static_cast<std::size_t>(n), 0);
  for (int run = 0; run < 400; ++run) {
    const auto sender = static_cast<sim::ProcId>(run % n);
    std::vector<sim::StagedMessage> items(rng.uniform_index(12));
    for (sim::StagedMessage& item : items) {
      item.to = static_cast<sim::ProcId>(rng.uniform_index(n));
      item.msg.round = static_cast<std::int32_t>(rng.uniform_index(2));
      item.msg.kind = static_cast<std::int32_t>(rng.uniform_index(2));
      item.msg.aux = static_cast<std::int32_t>(rng.uniform_index(2));
      item.msg.value = static_cast<std::int32_t>(rng.uniform_index(3)) - 1;
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      const sim::Message& mi = items[i].msg;
      if (mi.value != 0 && mi.value != 1) continue;
      for (std::size_t j = 0; j < i; ++j) {
        const sim::Message& mj = items[j].msg;
        if (mj.round == mi.round && mj.kind == mi.kind && mj.aux == mi.aux &&
            mj.value == 1 - mi.value) {
          ++expect[static_cast<std::size_t>(sender)];
          break;
        }
      }
    }
    trace.on_publish(sender, items, 0);
  }
  for (sim::ProcId s = 0; s < n; ++s) {
    EXPECT_EQ(trace.equivocations(s), expect[static_cast<std::size_t>(s)])
        << "sender " << s;
    EXPECT_GT(trace.equivocations(s), 0) << "sender " << s;
  }
}

TEST(Accountability, BlamesByzantineEquivocatorsExactly) {
  const int n = 16;  // canonical thresholds need 6t < n
  const int t = 2;
  const int byz = 2;  // make_byzantine_processes corrupts procs [0, byz)
  core::Experiment spec = window_spec(n, t);
  spec.byzantine = core::ByzantineSpec{
      byz, protocols::ByzantineStrategy::Equivocate, {}};
  const core::Runner runner(spec);
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    adversary::FairWindowAdversary fair;
    (void)runner.run_byzantine(fair, seed, scratch);
    ASSERT_TRUE(scratch.trace.has_value());
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  EXPECT_EQ(rep.blamed_equivocators, (std::vector<sim::ProcId>{0, 1}));
  for (sim::ProcId s = byz; s < n; ++s) {
    EXPECT_EQ(rep.senders[static_cast<std::size_t>(s)].equivocations, 0)
        << "honest sender " << s;
  }
}

TEST(Accountability, FaultFreeFairRunsBlameNobody) {
  const int n = 8;
  const int t = 1;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    adversary::FairWindowAdversary fair;
    (void)runner.run_window(fair, seed, scratch);
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  EXPECT_TRUE(rep.blamed_equivocators.empty());
  EXPECT_TRUE(rep.blamed_censored.empty());
  for (const SenderLatency& row : rep.senders) {
    EXPECT_EQ(row.censorship_score, 0.0);
    EXPECT_EQ(row.delivered_share, 1.0);
    EXPECT_EQ(row.confirmed_share, 1.0);
    EXPECT_GT(row.confirm_count, 0);
  }
}

TEST(Accountability, AsyncStarvationShowsUpAsMissingConfirmations) {
  const int n = 8;
  const int t = 1;
  const sim::ProcId target = 3;
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::BenOr;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = 4000;
  spec.stop = core::StopCondition::kAllDecided;
  spec.lens = true;
  const core::Runner runner(spec);
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    // An effectively unbounded fairness bound: the target's messages are
    // deferred whenever ANY other delivery is pending. run_async never
    // drops messages, so the starvation evidence is confirmation shares
    // (deciders deciding before first hearing the target), not
    // suppression counts.
    adversary::StarvingAsyncScheduler starve(
        std::make_unique<adversary::RandomAsyncScheduler>(Rng(seed * 3 + 1)),
        target, /*fairness_bound=*/1 << 28);
    (void)runner.run_async(starve, seed, scratch);
    ASSERT_TRUE(scratch.trace.has_value());
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  ASSERT_GT(rep.deciders, 0);
  const SenderLatency& victim = rep.senders[static_cast<std::size_t>(target)];
  const SenderLatency& witness =
      rep.senders[static_cast<std::size_t>((target + 1) % n)];
  EXPECT_LT(victim.confirmed_share, witness.confirmed_share);
  EXPECT_GT(victim.censorship_score, 0.0);
  const auto& blamed = rep.blamed_censored;
  EXPECT_NE(std::find(blamed.begin(), blamed.end(), target), blamed.end())
      << "starved target should exceed the blame threshold";
}

}  // namespace
}  // namespace aa::lens
