// Integration: measure-one correctness & termination (Definitions 2 & 3)
// for every protocol under its intended adversary class, Monte-Carlo over
// many seeds. These are the headline Theorem 4 checks.
#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/checker.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

struct WindowCase {
  const char* label;
  int n;
  int t;
  double ones;
};

class ResetMeasureOneTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(ResetMeasureOneTest, CleanUnderRandomWindows) {
  const WindowCase wc = GetParam();
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Reset,
                 .inputs = protocols::split_inputs(wc.n, wc.ones),
                 .t = wc.t,
                 .budget = 300000},
      [&wc](std::uint64_t seed) {
        return std::make_unique<adversary::RandomWindowAdversary>(wc.t, 0.25,
                                                                  Rng(seed));
      },
      /*trials=*/15, /*seed0=*/9000, ctx);
  EXPECT_TRUE(rep.clean()) << wc.label;
  EXPECT_EQ(rep.all_decided_runs, 15) << wc.label << ": termination failed";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResetMeasureOneTest,
    ::testing::Values(WindowCase{"n7_t1_split", 7, 1, 0.5},
                      WindowCase{"n13_t2_split", 13, 2, 0.5},
                      WindowCase{"n13_t2_skew", 13, 2, 0.25},
                      WindowCase{"n19_t3_split", 19, 3, 0.5},
                      WindowCase{"n19_t3_ones", 19, 3, 1.0},
                      WindowCase{"n25_t4_zeros", 25, 4, 0.0}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      return info.param.label;
    });

TEST(MeasureOne, ResetSurvivesSplitKeeperEventually) {
  // Even the exponential-time adversary cannot prevent termination forever
  // (measure one termination); at n = 12 the wait is affordable.
  const int n = 12;
  const int t = 1;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Reset,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 1'000'000},
      [](std::uint64_t) {
        return std::make_unique<adversary::SplitKeeperAdversary>();
      },
      10, 100, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 10);
}

TEST(MeasureOne, ResetSurvivesSilencerForever) {
  // A fixed t-set silenced for the whole run: the classical crash schedule.
  const int n = 13;
  const int t = 2;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Reset,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 300000},
      [](std::uint64_t) {
        return std::make_unique<adversary::SilencerWindowAdversary>(
            std::vector<sim::ProcId>{0, 1});
      },
      15, 200, ctx);
  EXPECT_TRUE(rep.clean());
  // The SILENCED processors still hear everything and decide; all 13 finish.
  EXPECT_EQ(rep.all_decided_runs, 15);
}

TEST(MeasureOne, BrachaCleanUnderFairWindows) {
  const int n = 10;
  const int t = 3;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_window(
      Experiment{.kind = ProtocolKind::Bracha,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 500000},
      [](std::uint64_t) {
        return std::make_unique<adversary::FairWindowAdversary>();
      },
      10, 300, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 10);
}

TEST(MeasureOne, BenOrCleanUnderCrashSchedules) {
  const int n = 11;
  const int t = 3;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_async(
      Experiment{.kind = ProtocolKind::BenOr,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 5'000'000},
      [n, t](std::uint64_t seed) {
        // Crash a random t-subset at random times via seed-derived choices.
        Rng r(seed);
        std::vector<sim::ProcId> victims;
        while (static_cast<int>(victims.size()) < t) {
          const auto v = static_cast<sim::ProcId>(r.uniform_index(
              static_cast<std::size_t>(n)));
          bool dup = false;
          for (sim::ProcId u : victims) dup = dup || (u == v);
          if (!dup) victims.push_back(v);
        }
        return std::make_unique<adversary::FixedCrashScheduler>(victims,
                                                                Rng(seed));
      },
      12, 400, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 12);
}

TEST(MeasureOne, ForgetfulCleanUnderSplitKeeperShortHorizon) {
  // The split-keeper may stall decisions (that is its purpose) but must
  // never induce an agreement/validity violation.
  const int n = 16;
  const int t = 2;
  CampaignContext ctx(ParallelConfig{});
  const MeasureOneReport rep = check_measure_one_async(
      Experiment{.kind = ProtocolKind::Forgetful,
                 .inputs = protocols::split_inputs(n, 0.5),
                 .t = t,
                 .budget = 20000},
      [](std::uint64_t) {
        return std::make_unique<adversary::AsyncSplitKeeper>();
      },
      10, 500, ctx);
  EXPECT_TRUE(rep.clean());
}

TEST(MeasureOne, ValidityUnderUnanimityForAllProtocols) {
  for (const ProtocolKind kind :
       {ProtocolKind::Reset, ProtocolKind::Bracha}) {
    for (int v = 0; v <= 1; ++v) {
      const int n = 10;
      const int t = kind == ProtocolKind::Reset ? 1 : 3;
      CampaignContext ctx(ParallelConfig{});
      const MeasureOneReport rep = check_measure_one_window(
          Experiment{.kind = kind,
                     .inputs = protocols::unanimous_inputs(n, v),
                     .t = t,
                     .budget = 100000},
          [](std::uint64_t) {
            return std::make_unique<adversary::FairWindowAdversary>();
          },
          5, 600 + static_cast<std::uint64_t>(v), ctx);
      EXPECT_TRUE(rep.clean()) << protocols::protocol_kind_name(kind)
                               << " v=" << v;
      EXPECT_EQ(rep.all_decided_runs, 5);
    }
  }
}

}  // namespace
}  // namespace aa::core
