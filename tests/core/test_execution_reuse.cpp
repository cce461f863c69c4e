// Execution-reuse bit-identity: a WorkerScratch reused across trials,
// protocols, instance sizes, and models must produce results identical to
// a fresh Execution per run (the no-scratch Runner overloads). This is the
// contract that lets CampaignContext keep one Execution per worker alive
// across an entire campaign.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"
#include "protocols/factory.hpp"
#include "sim/execution.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::core {
namespace {

void expect_same(const WindowRunResult& a, const WindowRunResult& b) {
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.all_decided, b.all_decided);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.windows_to_first, b.windows_to_first);
  EXPECT_EQ(a.windows_total, b.windows_total);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.total_resets, b.total_resets);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.validity, b.validity);
}

void expect_same(const AsyncRunOutcome& a, const AsyncRunOutcome& b) {
  EXPECT_EQ(a.decided, b.decided);
  EXPECT_EQ(a.all_decided, b.all_decided);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.chain_at_decision, b.chain_at_decision);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.hit_limit, b.hit_limit);
  EXPECT_EQ(a.agreement, b.agreement);
  EXPECT_EQ(a.validity, b.validity);
}

Experiment window_spec(protocols::ProtocolKind kind, int n, int t) {
  Experiment spec;
  spec.kind = kind;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = 400;
  spec.stop = StopCondition::kAllDecided;
  return spec;
}

TEST(ExecutionReuse, WindowRunsMatchFreshAcrossProtocolsAndAdversaries) {
  // ONE scratch survives the whole matrix — different n, protocols, and
  // adversaries back to back, the worst case for stale-state leaks.
  WorkerScratch scratch;
  const protocols::ProtocolKind kinds[] = {
      protocols::ProtocolKind::Reset, protocols::ProtocolKind::Forgetful,
      protocols::ProtocolKind::BenOr, protocols::ProtocolKind::Bracha};
  for (const int n : {8, 13}) {
    for (const auto kind : kinds) {
      const Runner runner(window_spec(kind, n, 1));
      for (std::uint64_t trial = 0; trial < 6; ++trial) {
        const std::uint64_t seed = 900 + trial * 37;
        adversary::RandomWindowAdversary fresh_adv(1, 0.15, Rng(seed + 5));
        adversary::RandomWindowAdversary reuse_adv(1, 0.15, Rng(seed + 5));
        const WindowRunResult fresh = runner.run_window(fresh_adv, seed);
        const WindowRunResult reused =
            runner.run_window(reuse_adv, seed, scratch);
        expect_same(reused, fresh);
      }
    }
  }
  // The reset storm drives the reset/rejoin paths the random adversary
  // rarely reaches; run it through the SAME (already dirty) scratch.
  const Runner runner(window_spec(protocols::ProtocolKind::Reset, 13, 2));
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    adversary::ResetStormAdversary fresh_adv(2, Rng(seed));
    adversary::ResetStormAdversary reuse_adv(2, Rng(seed));
    expect_same(runner.run_window(reuse_adv, seed, scratch),
                runner.run_window(fresh_adv, seed));
  }
}

TEST(ExecutionReuse, AsyncRunsMatchFreshWithSharedScratch) {
  WorkerScratch scratch;
  for (const auto kind :
       {protocols::ProtocolKind::Forgetful, protocols::ProtocolKind::BenOr}) {
    Experiment spec;
    spec.kind = kind;
    spec.inputs = protocols::split_inputs(9, 0.5);
    spec.t = 1;
    spec.budget = 6000;
    spec.stop = StopCondition::kAllDecided;
    const Runner runner(std::move(spec));
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      const std::uint64_t seed = 40 + trial;
      adversary::RandomAsyncScheduler fresh_adv(Rng(seed * 3 + 1));
      adversary::RandomAsyncScheduler reuse_adv(Rng(seed * 3 + 1));
      const AsyncRunOutcome fresh = runner.run_async(fresh_adv, seed);
      const AsyncRunOutcome reused = runner.run_async(reuse_adv, seed, scratch);
      expect_same(reused, fresh);
    }
  }
}

TEST(ExecutionReuse, ScratchSurvivesModelSwitches) {
  // Window → async → window through one scratch: the reset must not
  // leave either model's bookkeeping behind.
  WorkerScratch scratch;
  const Runner wrunner(window_spec(protocols::ProtocolKind::Reset, 8, 1));
  Experiment aspec;
  aspec.kind = protocols::ProtocolKind::BenOr;
  aspec.inputs = protocols::split_inputs(8, 0.5);
  aspec.t = 1;
  aspec.budget = 5000;
  aspec.stop = StopCondition::kAllDecided;
  const Runner arunner(std::move(aspec));

  for (std::uint64_t seed : {7ULL, 8ULL}) {
    adversary::FairWindowAdversary wf1;
    adversary::FairWindowAdversary wf2;
    expect_same(wrunner.run_window(wf2, seed, scratch),
                wrunner.run_window(wf1, seed));
    adversary::RandomAsyncScheduler af1{Rng(seed)};
    adversary::RandomAsyncScheduler af2{Rng(seed)};
    expect_same(arunner.run_async(af2, seed, scratch),
                arunner.run_async(af1, seed));
  }
}

TEST(ExecutionReuse, ResetClearsHostileMidWindowStateAndKeepsCapacity) {
  // Abandon an Execution at the nastiest possible point — mid-window, with
  // undelivered window messages to several receivers, a bulk-delivered
  // row, a per-id delivery, a crashed processor and a reset one, after an
  // arena phase that grew the slot arena — then reset() for a new trial.
  // The auditor must pass on the rebuilt state, grown capacities must
  // survive, and the rebuilt execution must replay a trial bit-identically
  // to a fresh one.
  const int n = 8;
  const int t = 1;
  auto procs = [&] {
    return protocols::make_processes(protocols::ProtocolKind::Reset, t,
                                     protocols::split_inputs(n, 0.5));
  };
  sim::Execution exec(procs(), 321);
  for (sim::ProcId p = 0; p < n; ++p) (void)exec.sending_step(p);
  for (const sim::MsgId id : exec.buffer().all_pending_ids()) {
    exec.receiving_step(id);
  }
  exec.begin_window_batch();
  for (sim::ProcId p = 0; p < n; ++p) (void)exec.sending_step(p);
  std::vector<sim::ProcId> row;
  for (sim::ProcId p = 0; p < n; ++p) row.push_back(p);
  ASSERT_GT(exec.deliver_plan_row(0, row), 0);
  const sim::MsgIdRange to1 = exec.window_batch().from_to(4, 1);
  ASSERT_FALSE(to1.empty());
  exec.receiving_step(to1[0]);
  exec.crash(2);
  exec.resetting_step(3);
  ASSERT_GT(exec.buffer().pending_count(), 0u);  // and NO end_window

  const std::size_t reserve = exec.buffer().slot_reserve();
  ASSERT_GT(reserve, 0u);
  std::size_t run_capacity = 0;
  for (const sim::SenderRun& run : exec.window_scratch().runs) {
    run_capacity += run.items.capacity();
  }
  ASSERT_GT(run_capacity, 0u);
  exec.reset(procs(), 654);
  EXPECT_NO_THROW(exec.audit());
  EXPECT_EQ(exec.buffer().slot_reserve(), reserve);  // allocation retained
  EXPECT_EQ(exec.buffer().slot_capacity(), 0u);      // materialized span rewound
  std::size_t run_capacity_after = 0;
  for (const sim::SenderRun& run : exec.window_scratch().runs) {
    run_capacity_after += run.items.capacity();
  }
  EXPECT_EQ(run_capacity_after, run_capacity);
  EXPECT_EQ(exec.buffer().pending_count(), 0u);
  EXPECT_EQ(exec.window(), 0);
  EXPECT_EQ(exec.crashed_count(), 0);
  EXPECT_EQ(exec.total_resets(), 0);

  sim::Execution fresh(procs(), 654);
  adversary::RandomWindowAdversary reuse_adv(t, 0.15, Rng(9));
  adversary::RandomWindowAdversary fresh_adv(t, 0.15, Rng(9));
  EXPECT_EQ(sim::run_until_all_decided(exec, reuse_adv, t, 200),
            sim::run_until_all_decided(fresh, fresh_adv, t, 200));
  EXPECT_EQ(exec.step_count(), fresh.step_count());
  EXPECT_EQ(exec.total_resets(), fresh.total_resets());
  for (sim::ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(exec.output(p), fresh.output(p)) << "proc " << p;
  }
  EXPECT_NO_THROW(exec.audit());
}

}  // namespace
}  // namespace aa::core
