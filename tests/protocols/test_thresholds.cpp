#include <gtest/gtest.h>

#include <vector>

#include "protocols/forgetful.hpp"
#include "protocols/reset_agreement.hpp"
#include "protocols/thresholds.hpp"

namespace aa::protocols {
namespace {

TEST(Thresholds, CanonicalValues) {
  const Thresholds th = canonical_thresholds(24, 3);
  EXPECT_EQ(th.t1, 18);
  EXPECT_EQ(th.t2, 18);
  EXPECT_EQ(th.t3, 15);
}

TEST(Thresholds, CanonicalSatisfiesTheorem4ForSmallT) {
  // Theorem 4: for every t < n/6 the canonical setting is valid.
  for (int n : {7, 13, 24, 31, 48, 97}) {
    for (int t = 1; 6 * t < n; ++t) {
      const Thresholds th = canonical_thresholds(n, t);
      EXPECT_TRUE(thresholds_valid(n, t, th))
          << "n=" << n << " t=" << t << ": " << threshold_violation(n, t, th);
    }
  }
}

TEST(Thresholds, ViolationMessagesNameTheConstraint) {
  // T1 too large.
  EXPECT_NE(threshold_violation(12, 2, {9, 8, 7}).find("n - 2t >= T1"),
            std::string::npos);
  // T1 < T2.
  EXPECT_NE(threshold_violation(12, 1, {8, 9, 7}).find("T1 >= T2"),
            std::string::npos);
  // T2 < T3 + t.
  EXPECT_NE(threshold_violation(12, 2, {8, 8, 7}).find("T2 >= T3 + t"),
            std::string::npos);
  // 2*T3 <= n.
  EXPECT_NE(threshold_violation(12, 1, {10, 8, 6}).find("2*T3 > n"),
            std::string::npos);
  // Non-positive.
  EXPECT_NE(threshold_violation(12, 1, {0, 0, 0}).find("positive"),
            std::string::npos);
}

TEST(Thresholds, ValidSettingsHaveEmptyViolation) {
  EXPECT_TRUE(threshold_violation(24, 3, canonical_thresholds(24, 3)).empty());
}

TEST(Thresholds, SmallerT2IsLegalWhenTIsSmall) {
  // With slack (t well below n/6), T2 can sit below T1.
  const int n = 36;
  const int t = 2;
  const Thresholds th{n - 2 * t, n - 2 * t - 3, n - 2 * t - 3 - t};
  EXPECT_TRUE(thresholds_valid(n, t, th)) << threshold_violation(n, t, th);
}

TEST(Thresholds, MaxSupportedTMatchesTheorem) {
  // t must stay under n/6; check the reported ceiling is valid and maximal.
  for (int n : {13, 24, 48, 100}) {
    const int tmax = max_supported_t(n);
    EXPECT_GT(tmax, 0);
    EXPECT_LT(6 * tmax, n);
    EXPECT_TRUE(thresholds_valid(n, tmax, canonical_thresholds(n, tmax)));
    // t = tmax + 1 must fail (either ≥ n/6 or constraints break).
    const int tnext = tmax + 1;
    EXPECT_TRUE(6 * tnext >= n ||
                !thresholds_valid(n, tnext, canonical_thresholds(n, tnext)));
  }
}

TEST(Thresholds, TinyNHasNoSupportedT) {
  EXPECT_EQ(max_supported_t(6), 0);
  EXPECT_EQ(max_supported_t(1), 0);
}

TEST(Thresholds, ArgumentValidation) {
  EXPECT_THROW((void)canonical_thresholds(0, 0), std::invalid_argument);
  EXPECT_THROW((void)canonical_thresholds(10, -1), std::invalid_argument);
  EXPECT_THROW((void)max_supported_t(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The step-3 rule.

/// Canonical thresholds for every 0 < t < n/6, and forgetful_thresholds for
/// every t ≥ n/6 that ForgetfulProcess accepts, at n ∈ {7, 13, 16, 19}.
std::vector<Thresholds> rule_settings() {
  std::vector<Thresholds> out;
  for (int n : {7, 13, 16, 19}) {
    for (int t = 1; 6 * t < n; ++t) out.push_back(canonical_thresholds(n, t));
    for (int t = 1; 2 * t < n; ++t) {
      const Thresholds th = forgetful_thresholds(n, t);
      if (6 * t >= n && th.t1 >= th.t2) out.push_back(th);
    }
  }
  return out;
}

TEST(Step3Rule, BoundariesForBothValues) {
  // `c` votes for v among T1, the other T1 − c for ¬v (always below T3).
  struct Row {
    const char* what;
    int c;
    bool decides;  // decide == v (else ⊥)
    bool adopts;   // estimate == v (else kFlipCoin)
  };
  for (const Thresholds& th : rule_settings()) {
    EXPECT_NO_THROW(require_step3_thresholds(th, th.t1, "test"));
    // Every setting has T2 ≥ T3 + t > T3, so T2 − 1 still adopts.
    ASSERT_GT(th.t2, th.t3);
    const Row rows[] = {
        {"T2 decides and adopts", th.t2, true, true},
        {"T2 - 1 adopts only", th.t2 - 1, false, true},
        {"T3 adopts only", th.t3, false, true},
        {"T3 - 1 flips a coin", th.t3 - 1, false, false},
    };
    for (const Row& row : rows) {
      const int other = th.t1 - row.c;
      ASSERT_LT(other, th.t3);
      for (int v = 0; v <= 1; ++v) {
        const Step3 s = v == 0 ? step3(th, row.c, other) : step3(th, other, row.c);
        SCOPED_TRACE(testing::Message()
                     << row.what << ", v=" << v << ", T=" << th.t1 << "/"
                     << th.t2 << "/" << th.t3);
        EXPECT_EQ(s.decide, row.decides ? v : sim::kBot);
        EXPECT_EQ(s.estimate, row.adopts ? v : kFlipCoin);
      }
    }
  }
}

TEST(Step3Rule, DecideImpliesAdoptingTheSameValue) {
  for (const Thresholds& th : rule_settings()) {
    for (int ones = 0; ones <= th.t1; ++ones) {
      const Step3 s = step3(th, th.t1 - ones, ones);
      if (s.decide != sim::kBot) {
        EXPECT_EQ(s.estimate, s.decide);
      }
    }
  }
}

TEST(Step3Rule, BothBelowT3FlipsACoin) {
  for (const Thresholds& th : rule_settings()) {
    EXPECT_EQ(step3(th, th.t3 - 1, th.t3 - 1).estimate, kFlipCoin);
    EXPECT_EQ(step3(th, th.t3 - 1, th.t3 - 1).decide, sim::kBot);
    EXPECT_EQ(step3(th, 0, 0).estimate, kFlipCoin);
  }
}

TEST(Step3Rule, ZeroIsTestedFirst) {
  // No T1 votes can put both values at T3 when 2·T3 > T1, but the rule is
  // pure: on such counts 0 wins, as the processes' loops over v = 0, 1 did.
  for (const Thresholds& th : rule_settings()) {
    EXPECT_EQ(step3(th, th.t2, th.t2).decide, 0);
    EXPECT_EQ(step3(th, th.t2, th.t2).estimate, 0);
    EXPECT_EQ(step3(th, th.t3, th.t3).estimate, 0);
  }
}

// ---------------------------------------------------------------------------
// The shared precondition.

TEST(Step3Precondition, ConstructorsAcceptExactlyTheirFormerInputs) {
  // The chain T1 ≥ T2 ≥ T3 > 0 for both; 2·T3 > T1 for ResetProcess and
  // 2·T3 > n for ForgetfulProcess, checked over a small grid.
  for (int n = 1; n <= 8; ++n) {
    for (int t1 = -1; t1 <= 9; ++t1) {
      for (int t2 = -1; t2 <= 9; ++t2) {
        for (int t3 = -1; t3 <= 9; ++t3) {
          const Thresholds th{t1, t2, t3};
          const bool chain = t1 >= t2 && t2 >= t3 && t3 > 0;
          const bool reset_ok = chain && 2 * t3 > t1;
          const bool forgetful_ok = chain && 2 * t3 > n;
          bool reset_built = true;
          bool forgetful_built = true;
          try {
            ResetProcess(0, n, 0, th);
          } catch (const std::invalid_argument&) {
            reset_built = false;
          }
          try {
            ForgetfulProcess(0, n, 0, th);
          } catch (const std::invalid_argument&) {
            forgetful_built = false;
          }
          EXPECT_EQ(reset_built, reset_ok)
              << "n=" << n << " T=" << t1 << "/" << t2 << "/" << t3;
          EXPECT_EQ(forgetful_built, forgetful_ok)
              << "n=" << n << " T=" << t1 << "/" << t2 << "/" << t3;
        }
      }
    }
  }
}

}  // namespace
}  // namespace aa::protocols
