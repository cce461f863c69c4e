// Plan-reuse contract of the redesigned adversary API:
//  * static adversaries answer kReusePrevious and the driver skips the n²
//    fill AND validate_window_plan on those windows;
//  * any crash/reset (liveness change) forces one re-validation of a
//    reused plan;
//  * reusing is observationally bit-identical to re-planning every window
//    for fair/silencer, serially and across checker thread counts 1/2/8.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/window_adversaries.hpp"
#include "core/checker.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

Execution make_exec(int n, int t, std::uint64_t seed) {
  return Execution(protocols::make_processes(
                       ProtocolKind::Reset, t, protocols::split_inputs(n, 0.5)),
                   seed);
}

TEST(PlanReuse, SkipsValidationOnReuseWindows) {
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 3);
  adversary::FairWindowAdversary fair;
  run_acceptable_window(e, fair, t);
  run_acceptable_window(e, fair, t);

  // Corrupt the cached plan behind the adversary's back: |S_0| = 0 is
  // illegal, but on a reuse window validation is skipped, so the window
  // must run (delivering nothing to receiver 0) instead of throwing.
  e.window_scratch().plan.delivery_order[0].clear();
  EXPECT_NO_THROW(run_acceptable_window(e, fair, t));
}

TEST(PlanReuse, RevalidatesAfterCrash) {
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 3);
  adversary::FairWindowAdversary fair;
  run_acceptable_window(e, fair, t);

  e.window_scratch().plan.delivery_order[0].clear();
  run_acceptable_window(e, fair, t);  // reuse window: skip tolerated
  e.crash(5);                         // liveness changed…
  // …so the next reuse window must re-validate and catch the bad plan.
  EXPECT_THROW(run_acceptable_window(e, fair, t), std::invalid_argument);
}

TEST(PlanReuse, RevalidatesAfterReset) {
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 4);
  adversary::FairWindowAdversary fair;
  run_acceptable_window(e, fair, t);

  e.window_scratch().plan.delivery_order[3].resize(5);  // |S_3| < n − t
  run_acceptable_window(e, fair, t);  // reuse window: skip tolerated
  e.resetting_step(7);                // liveness changed…
  EXPECT_THROW(run_acceptable_window(e, fair, t), std::invalid_argument);
}

TEST(PlanReuse, RevalidatesWhenBudgetTChanges) {
  // A plan validated under t = 5 must not be silently accepted when the
  // same adversary is driven with t = 2: the (adversary, t) pairing key
  // forces a re-prepare, refill, and re-validation.
  const int n = 36;  // t = 5 < n/6, so the protocol thresholds are legal
  Execution e = make_exec(n, 5, 8);
  adversary::SilencerWindowAdversary silencer({0, 1, 2, 3, 4});
  run_acceptable_window(e, silencer, 5);  // |S_i| = 31 ≥ n − 5: legal
  // Under t = 2 the same plan has |S_i| = 31 < n − 2 = 34: must throw.
  EXPECT_THROW(run_acceptable_window(e, silencer, 2), std::invalid_argument);
}

TEST(PlanReuse, CrashWithValidCachedPlanStaysClean) {
  // The defensive re-validation must PASS for an intact static plan — a
  // crash alone never invalidates fair/silencer plans.
  const int n = 12;
  const int t = 2;
  Execution e = make_exec(n, t, 5);
  adversary::SilencerWindowAdversary silencer({1, 4});
  run_acceptable_window(e, silencer, t);
  e.crash(9);
  EXPECT_NO_THROW(run_acceptable_window(e, silencer, t));
  e.resetting_step(2);
  EXPECT_NO_THROW(run_acceptable_window(e, silencer, t));
}

TEST(PlanReuse, AdversarySwapMidExecutionRefills) {
  // Swapping adversaries re-runs prepare and invalidates the cached plan,
  // so the silencer's plan replaces fair's instead of aliasing it.
  const int n = 10;
  const int t = 1;
  Execution e = make_exec(n, t, 6);
  adversary::FairWindowAdversary fair;
  adversary::SilencerWindowAdversary silencer({0});
  run_acceptable_window(e, fair, t);
  run_acceptable_window(e, silencer, t);
  for (const auto& order : e.window_scratch().plan.delivery_order) {
    EXPECT_EQ(order.size(), static_cast<std::size_t>(n - 1));
  }
  run_acceptable_window(e, fair, t);
  for (const auto& order : e.window_scratch().plan.delivery_order) {
    EXPECT_EQ(order.size(), static_cast<std::size_t>(n));
  }
}

void expect_same_run(sim::WindowAdversary& reusing,
                     sim::WindowAdversary& replanning, int n, int t,
                     std::uint64_t seed) {
  Execution a = make_exec(n, t, seed);
  Execution b = make_exec(n, t, seed);
  const auto wa = run_until_all_decided(a, reusing, t, 200000);
  const auto wb = run_until_all_decided(b, replanning, t, 200000);
  EXPECT_EQ(wa, wb);
  EXPECT_EQ(a.step_count(), b.step_count());
  EXPECT_EQ(a.total_resets(), b.total_resets());
  EXPECT_EQ(a.decided_count(), b.decided_count());
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(a.output(p), b.output(p)) << "proc " << p;
    EXPECT_EQ(a.process(p).round(), b.process(p).round()) << "proc " << p;
    EXPECT_EQ(a.process(p).estimate(), b.process(p).estimate())
        << "proc " << p;
  }
}

TEST(PlanReuse, FairBitIdenticalToReplanningEveryWindow) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    adversary::FairWindowAdversary fair;
    adversary::ReplanEveryWindow replan(
        std::make_unique<adversary::FairWindowAdversary>());
    expect_same_run(fair, replan, 13, 2, seed);
  }
}

TEST(PlanReuse, SilencerBitIdenticalToReplanningEveryWindow) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    adversary::SilencerWindowAdversary silencer({0, 6});
    adversary::ReplanEveryWindow replan(
        std::make_unique<adversary::SilencerWindowAdversary>(
            std::vector<ProcId>{0, 6}));
    expect_same_run(silencer, replan, 13, 2, seed);
  }
}

void expect_same_report(const core::MeasureOneReport& a,
                        const core::MeasureOneReport& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.validity_violations, b.validity_violations);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.all_decided_runs, b.all_decided_runs);
  EXPECT_EQ(a.mean_windows_to_first, b.mean_windows_to_first);  // bit-exact
  EXPECT_EQ(a.violating_seeds, b.violating_seeds);
}

TEST(PlanReuse, CheckerReportsBitIdenticalAcrossThreadsAndModes) {
  // fair (reusing) vs replan-every-window (dynamic) at thread counts
  // 1/2/8: all six reports must be byte-for-byte the same story.
  const auto inputs = protocols::split_inputs(12, 0.5);
  const auto run = [&](bool reuse, int threads) {
    core::WindowAdversaryFactory factory =
        [&](std::uint64_t) -> std::unique_ptr<WindowAdversary> {
      if (reuse) return std::make_unique<adversary::FairWindowAdversary>();
      return std::make_unique<adversary::ReplanEveryWindow>(
          std::make_unique<adversary::FairWindowAdversary>());
    };
    core::CampaignContext ctx(ParallelConfig{.threads = threads});
    return core::check_measure_one_window(
        core::Experiment{.kind = ProtocolKind::Reset,
                         .inputs = inputs,
                         .t = 1,
                         .budget = 100000},
        factory, /*trials=*/48, /*seed0=*/500, ctx);
  };
  const core::MeasureOneReport base = run(/*reuse=*/true, 1);
  EXPECT_GT(base.all_decided_runs, 0);
  for (const int threads : {1, 2, 8}) {
    expect_same_report(base, run(/*reuse=*/true, threads));
    expect_same_report(base, run(/*reuse=*/false, threads));
  }
}

}  // namespace
}  // namespace aa::sim
