#include <gtest/gtest.h>

#include "core/exhaustive.hpp"
#include "protocols/factory.hpp"

namespace aa::core {
namespace {

using protocols::Thresholds;
using protocols::canonical_thresholds;

TEST(Exhaustive, UnanimousInputsCloseImmediately) {
  // All-ones at n = 7, t = 1: every window decides 1; the reachable set
  // closes after a couple of levels and no violation exists.
  const int n = 7;
  const int t = 1;
  const auto rep = exhaustive_check(t, canonical_thresholds(n, t),
                                    protocols::unanimous_inputs(n, 1),
                                    {.max_depth = 3, .max_configs = 100000});
  EXPECT_TRUE(rep.clean());
  EXPECT_FALSE(rep.budget_exhausted);
  EXPECT_GE(rep.depth_completed, 3);
  EXPECT_GT(rep.transitions, 0);
}

TEST(Exhaustive, SplitInputsSafeAtDepthTwo) {
  // EVERY execution of the §3 algorithm over 2 windows from a 4/3 split at
  // n = 7 keeps agreement and validity — exhaustively verified over all
  // S, R, and coin choices.
  const int n = 7;
  const int t = 1;
  const auto rep = exhaustive_check(t, canonical_thresholds(n, t),
                                    protocols::split_inputs(n, 4.0 / 7), t ==
                                    1 ? ExhaustiveOptions{.max_depth = 2,
                                                          .max_configs =
                                                              150000}
                                      : ExhaustiveOptions{});
  EXPECT_TRUE(rep.clean()) << "configs=" << rep.configs_explored;
  EXPECT_GE(rep.depth_completed, 2);
  EXPECT_GT(rep.configs_explored, 10);
}

TEST(Exhaustive, ValidityJudgedAgainstInputs) {
  // All-zero inputs: any reachable 1-output would be a validity violation;
  // exhaustively there is none.
  const int n = 7;
  const int t = 1;
  const auto rep = exhaustive_check(t, canonical_thresholds(n, t),
                                    protocols::unanimous_inputs(n, 0),
                                    {.max_depth = 3, .max_configs = 100000});
  EXPECT_TRUE(rep.validity_ok);
  EXPECT_FALSE(rep.violation.has_value());
}

TEST(Exhaustive, DetectsAgreementViolationFromCraftedStart) {
  // Broken thresholds T2 = T3 (violating T2 >= T3 + t): start from a
  // configuration where one processor has already decided 0 but the votes
  // now favour 1. One window pushes others to decide 1 — the checker must
  // find the conflicting configuration (n = 7).
  const int t = 1;
  const Thresholds broken{5, 4, 4};  // valid 2*T3 > n, broken T2 >= T3 + t
  AbstractConfig start;
  start.x = {0, 1, 1, 1, 1, 1, 1};
  start.out = {0, -1, -1, -1, -1, -1, -1};
  const auto rep = exhaustive_check_from(t, broken, start, {true, true},
                                         {.max_depth = 1,
                                          .max_configs = 100000});
  EXPECT_FALSE(rep.agreement_ok);
  ASSERT_TRUE(rep.violation.has_value());
  bool has0 = false;
  bool has1 = false;
  for (int o : rep.violation->out) {
    if (o == 0) has0 = true;
    if (o == 1) has1 = true;
  }
  EXPECT_TRUE(has0 && has1);
}

TEST(Exhaustive, DetectsValidityViolationWithRestrictedValues) {
  // Same machinery, validity direction: declare 1 an invalid output and
  // start from an all-ones configuration — the first deciding window
  // violates.
  const int n = 7;
  const int t = 1;
  const auto th = canonical_thresholds(n, t);
  const auto rep = exhaustive_check_from(
      t, th, initial_config(protocols::unanimous_inputs(n, 1)),
      {true, false}, {.max_depth = 1, .max_configs = 10000});
  EXPECT_FALSE(rep.validity_ok);
  EXPECT_TRUE(rep.violation.has_value());
}

TEST(Exhaustive, BudgetCapReported) {
  const int n = 8;
  const int t = 1;
  const auto rep = exhaustive_check(t, canonical_thresholds(n, t),
                                    protocols::split_inputs(n, 0.5),
                                    {.max_depth = 4, .max_configs = 50});
  EXPECT_TRUE(rep.budget_exhausted);
  EXPECT_LE(rep.configs_explored, 51);
}

TEST(Exhaustive, CanonicalWindowFamilyCountsAreSane) {
  // n = 7, t = 1: |S| ∈ {6,7} → 8 delivery sets; |R| ≤ 1 → 8 reset sets.
  // From unanimity, window 1 is deterministic (no coins): transitions from
  // the root = 8 × 8 = 64.
  const int n = 7;
  const int t = 1;
  const auto rep = exhaustive_check(t, canonical_thresholds(n, t),
                                    protocols::unanimous_inputs(n, 0),
                                    {.max_depth = 1, .max_configs = 100000});
  EXPECT_EQ(rep.transitions, 64);
}

TEST(Exhaustive, RejectsNonBitInputs) {
  EXPECT_THROW((void)exhaustive_check(1, canonical_thresholds(7, 1),
                                      {0, 1, 2, 0, 1, 0, 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace aa::core
