#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <memory>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/checker.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

TEST(MeasureOneWindow, ResetAgreementCleanUnderRandomAdversary) {
  const int n = 13;
  const int t = 2;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Reset,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 100000},
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::RandomWindowAdversary>(t, 0.2,
                                                                  Rng(seed));
      },
      /*trials=*/30, /*seed0=*/1000, ctx);
  EXPECT_TRUE(rep.clean()) << rep.agreement_violations << " / "
                           << rep.validity_violations;
  EXPECT_EQ(rep.trials, 30);
  EXPECT_EQ(rep.all_decided_runs, 30);  // termination in every trial
  EXPECT_GT(rep.mean_windows_to_first, 0.0);
  // Window-model reports have no chain metric.
  EXPECT_EQ(rep.mean_chain_at_decision, 0.0);
}

TEST(MeasureOneWindow, ResetAgreementCleanUnderResetStorm) {
  const int n = 13;
  const int t = 2;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Reset,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 200000},
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::ResetStormAdversary>(t, Rng(seed));
      },
      20, 2000, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 20);
}

TEST(MeasureOneWindow, ViolatingSeedsRecorded) {
  // Deliberately break the threshold contract (T2 too small ⇒ premature,
  // possibly conflicting decisions) and confirm the checker CATCHES it.
  // n=8, t=1: T1=6, T2=4, T3=4 violates 2*T3 > n and T2 >= T3 + t.
  const int n = 8;
  const int t = 1;
  const protocols::Thresholds broken{6, 4, 4};
  ASSERT_FALSE(protocols::thresholds_valid(n, t, broken));
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Reset,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 2000,
                 .thresholds = broken},
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::RandomWindowAdversary>(t, 0.0,
                                                                  Rng(seed));
      },
      40, 3000, ctx);
  // With T2 = T3 = 4 out of T1 = 6 and a 4/4 split, conflicting decisions
  // occur with substantial probability within 40 trials.
  EXPECT_GT(rep.agreement_violations, 0);
  EXPECT_EQ(rep.violating_seeds.size(),
            static_cast<std::size_t>(rep.agreement_violations +
                                     rep.validity_violations));
}

TEST(MeasureOneAsync, BenOrCleanUnderCrashes) {
  const int n = 9;
  const int t = 2;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_async(
      Experiment{.kind = ProtocolKind::BenOr,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 5'000'000},
      [](std::uint64_t seed) {
        return std::make_unique<adversary::FixedCrashScheduler>(
            std::vector<sim::ProcId>{0, 1}, Rng(seed));
      },
      15, 4000, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.decided_runs, 15);
  // The async decision metric is the message-chain length;
  // mean_windows_to_first mirrors it (campaign artifacts carry that field).
  EXPECT_GT(rep.mean_chain_at_decision, 0.0);
  EXPECT_EQ(rep.mean_chain_at_decision, rep.mean_windows_to_first);
}

TEST(MeasureOneAsync, ForgetfulCleanUnderRandomScheduler) {
  const int n = 12;
  const int t = 1;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_async(
      Experiment{.kind = ProtocolKind::Forgetful,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 5'000'000},
      [](std::uint64_t seed) {
        return std::make_unique<adversary::RandomAsyncScheduler>(Rng(seed));
      },
      15, 5000, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 15);
}

TEST(MeasureOneWindow, SeedsAreSequentialFromSeed0) {
  // Two identical invocations give identical reports (replayability).
  auto run = [] {
    CampaignContext ctx(ParallelConfig{});
    return check_measure_one_window(
        Experiment{.kind = ProtocolKind::Reset,
                   .inputs = protocols::split_inputs(13, 0.5),
                   .t = 2,
                   .budget = 100000},
        [](std::uint64_t seed) {
          return std::make_unique<adversary::RandomWindowAdversary>(2, 0.1,
                                                                    Rng(seed));
        },
        10, 77, ctx);
  };
  const MeasureOneReport a = run();
  const MeasureOneReport b = run();
  EXPECT_EQ(a.mean_windows_to_first, b.mean_windows_to_first);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
}

// ---- exact means ----------------------------------------------------------
//
// The checker's mean is one exact division: the integer sum of the decision
// metric over deciding trials, divided once by their count. Rebuild that
// reference from independent Runner runs on the same seeds and compare bit
// for bit at threads 1, 2 and 8. (A running floating-point fold lands one
// ulp off on these configurations, e.g. 29.374999999999996 for 29.375.)

/// Integer metric sum and deciding-trial count over `trials` seeds, from
/// one fresh Runner run per seed (no checker involved).
struct Reference {
  std::int64_t sum = 0;
  std::int64_t decided = 0;
  [[nodiscard]] double mean() const {
    return static_cast<double>(sum) / static_cast<double>(decided);
  }
};

TEST(MeasureOneExactMean, WindowResetStormIsIntegerQuotient) {
  const int t = 2;
  const Experiment spec{.kind = ProtocolKind::Reset,
                        .inputs = protocols::split_inputs(16, 0.5),
                        .t = t,
                        .budget = 600};
  const auto factory = [t](std::uint64_t seed) {
    return std::make_unique<adversary::ResetStormAdversary>(t,
                                                            Rng(seed * 7 + 1));
  };
  const int trials = 40;
  const std::uint64_t seed0 = 1000;

  Experiment ref_spec = spec;
  ref_spec.stop = StopCondition::kAllDecided;  // the checkers' verdicts
  const Runner runner(ref_spec);
  Reference ref;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    auto adv = factory(seed);
    const WindowRunResult r = runner.run_window(*adv, seed);
    if (!r.decided) continue;
    ref.sum += r.windows_to_first;
    ++ref.decided;
  }
  ASSERT_GT(ref.decided, 0);
  EXPECT_EQ(ref.mean(), 29.375);

  for (const int threads : {1, 2, 8}) {
    CampaignContext ctx(ParallelConfig{.threads = threads});
    const MeasureOneReport rep =
        check_measure_one_window(spec, factory, trials, seed0, ctx);
    EXPECT_EQ(rep.decided_runs, ref.decided) << "threads=" << threads;
    EXPECT_EQ(rep.mean_windows_to_first, ref.mean())
        << "threads=" << threads << std::setprecision(17)
        << " checker=" << rep.mean_windows_to_first << " ref=" << ref.mean();
    EXPECT_EQ(rep.mean_chain_at_decision, 0.0) << "threads=" << threads;
  }
}

TEST(MeasureOneExactMean, AsyncFixedCrashIsIntegerQuotient) {
  const int t = 2;
  const Experiment spec{.kind = ProtocolKind::Reset,
                        .inputs = protocols::split_inputs(10, 0.5),
                        .t = t,
                        .budget = 40000};
  const auto factory = [t](std::uint64_t seed) {
    std::vector<sim::ProcId> crash;
    for (int i = 0; i < t; ++i) crash.push_back(i);
    return std::make_unique<adversary::FixedCrashScheduler>(crash,
                                                            Rng(seed * 5 + 3));
  };
  const int trials = 30;
  const std::uint64_t seed0 = 500;

  Experiment ref_spec = spec;
  ref_spec.stop = StopCondition::kAllDecided;
  const Runner runner(ref_spec);
  Reference ref;
  for (int i = 0; i < trials; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    auto adv = factory(seed);
    const AsyncRunOutcome r = runner.run_async(*adv, seed);
    if (!r.decided) continue;
    ref.sum += r.chain_at_decision;
    ++ref.decided;
  }
  ASSERT_GT(ref.decided, 0);
  EXPECT_EQ(ref.mean(), 9.1666666666666661);

  for (const int threads : {1, 2, 8}) {
    CampaignContext ctx(ParallelConfig{.threads = threads});
    const MeasureOneReport rep =
        check_measure_one_async(spec, factory, trials, seed0, ctx);
    EXPECT_EQ(rep.decided_runs, ref.decided) << "threads=" << threads;
    EXPECT_EQ(rep.mean_chain_at_decision, ref.mean())
        << "threads=" << threads << std::setprecision(17)
        << " checker=" << rep.mean_chain_at_decision << " ref=" << ref.mean();
    EXPECT_EQ(rep.mean_windows_to_first, rep.mean_chain_at_decision)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace aa::core
