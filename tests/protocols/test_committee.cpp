#include <gtest/gtest.h>

#include "protocols/committee.hpp"
#include "protocols/factory.hpp"

namespace aa::protocols {
namespace {

CommitteeParams params(int n, int t, bool adaptive) {
  CommitteeParams p;
  p.n = n;
  p.t = t;
  p.adaptive_adversary = adaptive;
  return p;
}

TEST(Committee, Validation) {
  Rng rng(1);
  const auto inputs = split_inputs(16, 0.5);
  EXPECT_THROW((void)run_committee_agreement(params(0, 0, false), {}, rng),
               std::invalid_argument);
  EXPECT_THROW(
      (void)run_committee_agreement(params(16, 16, false), inputs, rng),
      std::invalid_argument);
  EXPECT_THROW(
      (void)run_committee_agreement(params(8, 1, false), inputs, rng),
      std::invalid_argument);  // inputs size mismatch
}

TEST(Committee, NoFaultsAlwaysSucceeds) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto out =
        run_committee_agreement(params(64, 0, false), split_inputs(64, 0.5),
                                rng);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(out.decision == 0 || out.decision == 1);
    EXPECT_EQ(out.final_corrupted, 0);
  }
}

TEST(Committee, RoundsGrowLogarithmically) {
  Rng rng(3);
  const auto small =
      run_committee_agreement(params(64, 0, false), split_inputs(64, 0.5), rng);
  const auto big = run_committee_agreement(params(4096, 0, false),
                                           split_inputs(4096, 0.5), rng);
  EXPECT_GT(big.rounds, small.rounds);
  // 64× more processors but only ~2× more rounds: the polylog shape.
  EXPECT_LT(big.rounds, 3 * small.rounds);
}

TEST(Committee, AdaptiveAdversaryKillsTheFinalCommittee) {
  // The §1 observation: wait for the final committee, then corrupt it.
  Rng rng(4);
  int failures = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    const auto out = run_committee_agreement(params(256, 64, true),
                                             split_inputs(256, 0.5), rng);
    if (!out.success) ++failures;
    EXPECT_EQ(out.final_corrupted,
              out.final_committee_size);  // budget 64 >> committee size
  }
  EXPECT_EQ(failures, trials);
}

TEST(Committee, NonAdaptiveUsuallySucceedsWithQuarterCorruption) {
  Rng rng(5);
  int successes = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const auto out = run_committee_agreement(params(256, 64, false),
                                             split_inputs(256, 0.5), rng);
    if (out.success) ++successes;
  }
  // Corruption fraction 1/4 < 1/3: most final committees are fine, but the
  // failure probability is intrinsically nonzero.
  EXPECT_GT(successes, trials / 2);
  EXPECT_LT(successes, trials);  // and some failures occur at these sizes
}

TEST(Committee, ValidityOfDecision) {
  Rng rng(6);
  // All-ones inputs: any successful decision must be 1.
  for (int trial = 0; trial < 20; ++trial) {
    const auto out = run_committee_agreement(params(128, 16, false),
                                             unanimous_inputs(128, 1), rng);
    if (out.success) {
      EXPECT_EQ(out.decision, 1);
    }
  }
}

TEST(Committee, FinalCommitteeSizeHonoursOverride) {
  Rng rng(7);
  CommitteeParams p = params(512, 0, false);
  p.final_committee_size = 9;
  const auto out = run_committee_agreement(p, split_inputs(512, 0.5), rng);
  EXPECT_LE(out.final_committee_size, 9 * 2);  // last halving may overshoot
  EXPECT_GE(out.final_committee_size, 5);
}

TEST(CorruptionTail, MatchesHypergeometricEdgeCases) {
  EXPECT_DOUBLE_EQ(committee_corruption_tail(10, 5, 3, 0), 1.0);
  EXPECT_DOUBLE_EQ(committee_corruption_tail(10, 2, 3, 3), 0.0);
  // All corrupted: committee of any size is fully corrupted.
  EXPECT_NEAR(committee_corruption_tail(10, 10, 3, 3), 1.0, 1e-12);
  // n=4, c=2, s=2, k=2: P[both corrupted] = C(2,2)/C(4,2) = 1/6.
  EXPECT_NEAR(committee_corruption_tail(4, 2, 2, 2), 1.0 / 6.0, 1e-9);
}

TEST(CorruptionTail, MonotoneInCorruption) {
  const double lo = committee_corruption_tail(300, 30, 15, 5);
  const double hi = committee_corruption_tail(300, 100, 15, 5);
  EXPECT_LT(lo, hi);
}

TEST(CorruptionTail, AgreesWithMonteCarloCommitteeDraws) {
  // The analytic tail should predict the empirical corrupted-committee rate.
  Rng rng(8);
  const int n = 120;
  const int c = 40;
  const int s = 9;
  const int k = 3;  // ≥ 1/3 corrupted
  const double analytic = committee_corruption_tail(n, c, s, k);
  int hits = 0;
  const int trials = 4000;
  for (int trial = 0; trial < trials; ++trial) {
    // Draw a random committee, count corrupted (first c ids are corrupted).
    std::vector<int> ids(n);
    for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
    int corrupted = 0;
    for (int i = 0; i < s; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          rng.uniform_index(ids.size() - static_cast<std::size_t>(i));
      std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
      if (ids[static_cast<std::size_t>(i)] < c) ++corrupted;
    }
    if (corrupted >= k) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), analytic, 0.03);
}

}  // namespace
}  // namespace aa::protocols
