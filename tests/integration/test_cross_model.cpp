// Integration: cross-model and cross-protocol behaviours the paper calls
// out — the §1/§3 contrasts that the T2/F4 experiments tabulate.
#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"
#include "protocols/committee.hpp"
#include "util/stats.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

TEST(CrossModel, ResetToleratesResetStormButBenOrMayNot) {
  // The §3 algorithm recovers from per-window resets; Ben-Or (restarting at
  // round 1 on reset) has no rejoin path — its reset runs should on average
  // take far longer or fail to finish within the horizon.
  const int n = 14;
  const int t = 2;
  const std::int64_t horizon = 4000;
  int reset_done = 0;
  int benor_done = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    {
      adversary::ResetStormAdversary storm(t, Rng(seed));
      const auto r =
          Runner(Experiment{.kind = ProtocolKind::Reset,
                            .inputs = protocols::split_inputs(n, 0.5),
                            .t = t,
                            .budget = horizon})
              .run_window(storm, seed);
      if (r.decided) ++reset_done;
      EXPECT_TRUE(r.agreement);
    }
    {
      adversary::ResetStormAdversary storm(t, Rng(seed));
      const auto r =
          Runner(Experiment{.kind = ProtocolKind::BenOr,
                            .inputs = protocols::split_inputs(n, 0.5),
                            .t = t,
                            .budget = horizon})
              .run_window(storm, seed);
      if (r.decided) ++benor_done;
      EXPECT_TRUE(r.agreement);  // safety can survive; liveness is the issue
    }
  }
  EXPECT_EQ(reset_done, 8);
  EXPECT_LT(benor_done, 8);  // at least one stall within the horizon
}

TEST(CrossModel, SplitKeeperIsLegalInBothModels) {
  // The §3 adversary needs no resets/crashes — the same strategy stalls the
  // window model (strongly adaptive) and the async model (t-crash, t=0!).
  // At n = 24 the per-round escape probability is ≈ 2·P[Bin(24) ≤ 3] ≈ 0.002,
  // so a 50-round horizon essentially never decides (seeds are fixed, so
  // this is a deterministic regression pin, not a flaky assertion).
  const int n = 24;
  const int t = 3;
  {
    adversary::SplitKeeperAdversary keeper;
    const auto r = Runner(Experiment{.kind = ProtocolKind::Reset,
                                     .inputs = protocols::split_inputs(n, 0.5),
                                     .t = t,
                                     .budget = 50})
                       .run_window(keeper, 3);
    EXPECT_FALSE(r.decided);
  }
  {
    // Forgetful's T1 = n − t leaves the async split-keeper less slack per
    // round than the window model's T1 = n − 2t, so its per-round escape
    // probability is larger; pin a shorter horizon here (the exponential
    // scaling itself is measured in bench_f5_crash_lower_bound).
    adversary::AsyncSplitKeeper keeper;
    const auto r = Runner(Experiment{.kind = ProtocolKind::Forgetful,
                                     .inputs = protocols::split_inputs(n, 0.5),
                                     .t = t,
                                     .budget = 8 * n * n})
                       .run_async(keeper, 3);
    EXPECT_FALSE(r.decided);
  }
}

TEST(CrossModel, ChainLengthTracksRoundsForForgetful) {
  // In the async model with full communication, each round extends every
  // chain by ~2 (the vote plus its trigger): chain length at decision must
  // grow with the number of rounds, giving Theorem 17 its metric.
  const int n = 12;
  const int t = 1;
  adversary::RandomAsyncScheduler sched(Rng(5));
  const auto r = Runner(Experiment{.kind = ProtocolKind::Forgetful,
                                   .inputs = protocols::split_inputs(n, 0.5),
                                   .t = t,
                                   .budget = 5'000'000})
                     .run_async(sched, 7);
  ASSERT_TRUE(r.decided);
  EXPECT_GE(r.chain_at_decision, 1);
}

TEST(CrossModel, CommitteeFastButFallible_AdaptiveFatal) {
  // §1 contrast, both directions, in one test.
  Rng rng(11);
  const int n = 512;
  const int t = 128;
  protocols::CommitteeParams nonadaptive;
  nonadaptive.n = n;
  nonadaptive.t = t;
  nonadaptive.adaptive_adversary = false;
  protocols::CommitteeParams adaptive = nonadaptive;
  adaptive.adaptive_adversary = true;

  int na_success = 0;
  int a_success = 0;
  RunningStats na_rounds;
  const int trials = 60;
  for (int i = 0; i < trials; ++i) {
    const auto na = protocols::run_committee_agreement(
        nonadaptive, protocols::split_inputs(n, 0.5), rng);
    if (na.success) {
      ++na_success;
      na_rounds.add(na.rounds);
    }
    const auto a = protocols::run_committee_agreement(
        adaptive, protocols::split_inputs(n, 0.5), rng);
    if (a.success) ++a_success;
  }
  EXPECT_GT(na_success, trials * 2 / 3);  // usually fine non-adaptively
  EXPECT_EQ(a_success, 0);                // always dead adaptively
  // Polylog rounds: for n = 512 expect tens, not hundreds.
  EXPECT_LT(na_rounds.mean(), 100.0);
}

TEST(CrossModel, WindowCountVsStepCountConsistency) {
  const int n = 10;
  const int t = 1;
  adversary::FairWindowAdversary fair;
  const auto r = Runner(Experiment{.kind = ProtocolKind::Reset,
                                   .inputs = protocols::split_inputs(n, 0.5),
                                   .t = t,
                                   .budget = 100000,
                                   .stop = StopCondition::kAllDecided})
                     .run_window(fair, 21);
  ASSERT_TRUE(r.all_decided);
  // Each window costs n sends + up to n² receives (+ resets): steps are
  // bounded accordingly.
  EXPECT_GE(r.steps, r.windows_total * n);
  EXPECT_LE(r.steps, r.windows_total * (n + n * n + t) + n);
}

TEST(CrossModel, SameSeedSameOutcomeAcrossInvocations) {
  auto once = [] {
    adversary::SplitKeeperAdversary keeper;
    return Runner(Experiment{.kind = ProtocolKind::Reset,
                             .inputs = protocols::split_inputs(14, 0.5),
                             .t = 2,
                             .budget = 1'000'000,
                             .stop = StopCondition::kAllDecided})
        .run_window(keeper, 12345);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.windows_total, b.windows_total);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.steps, b.steps);
}

}  // namespace
}  // namespace aa::core
