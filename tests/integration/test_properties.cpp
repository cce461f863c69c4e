// Property-style integration sweeps (TEST_P) over protocol × adversary ×
// input grids: the invariants of Definition 2 must hold in EVERY cell.
#include <gtest/gtest.h>

#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

enum class AdvKind { Fair, Silencer, Random, ResetStorm, SplitKeeper };

std::unique_ptr<sim::WindowAdversary> make_adversary(AdvKind kind, int t,
                                                     std::uint64_t seed) {
  switch (kind) {
    case AdvKind::Fair:
      return std::make_unique<adversary::FairWindowAdversary>();
    case AdvKind::Silencer: {
      std::vector<sim::ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(i);
      return std::make_unique<adversary::SilencerWindowAdversary>(silenced);
    }
    case AdvKind::Random:
      return std::make_unique<adversary::RandomWindowAdversary>(t, 0.2,
                                                                Rng(seed));
    case AdvKind::ResetStorm:
      return std::make_unique<adversary::ResetStormAdversary>(t, Rng(seed));
    case AdvKind::SplitKeeper:
      return std::make_unique<adversary::SplitKeeperAdversary>();
  }
  return nullptr;
}

const char* adv_name(AdvKind kind) {
  switch (kind) {
    case AdvKind::Fair: return "fair";
    case AdvKind::Silencer: return "silencer";
    case AdvKind::Random: return "random";
    case AdvKind::ResetStorm: return "resetstorm";
    case AdvKind::SplitKeeper: return "splitkeeper";
  }
  return "?";
}

struct GridCase {
  AdvKind adv;
  int n;
  int t;
  double ones;
  std::uint64_t seed;
};

std::string grid_name(const ::testing::TestParamInfo<GridCase>& info) {
  const GridCase& g = info.param;
  return std::string(adv_name(g.adv)) + "_n" + std::to_string(g.n) + "_t" +
         std::to_string(g.t) + "_o" +
         std::to_string(static_cast<int>(g.ones * 100)) + "_s" +
         std::to_string(g.seed);
}

std::vector<GridCase> build_grid() {
  std::vector<GridCase> grid;
  const AdvKind advs[] = {AdvKind::Fair, AdvKind::Silencer, AdvKind::Random,
                          AdvKind::ResetStorm, AdvKind::SplitKeeper};
  const std::pair<int, int> sizes[] = {{7, 1}, {13, 2}, {19, 3}};
  const double fracs[] = {0.0, 0.5, 1.0};
  std::uint64_t seed = 1;
  for (AdvKind adv : advs) {
    for (auto [n, t] : sizes) {
      for (double ones : fracs) {
        grid.push_back(GridCase{adv, n, t, ones, seed++});
      }
    }
  }
  return grid;
}

class ResetGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(ResetGridTest, InvariantsHoldForEveryCell) {
  const GridCase g = GetParam();
  auto adv = make_adversary(g.adv, g.t, g.seed);
  // Split-keeper on split inputs is intentionally slow: cap windows and do
  // not demand a decision there — only the safety invariants.
  const bool slow_cell = g.adv == AdvKind::SplitKeeper && g.ones == 0.5;
  const std::int64_t max_windows = slow_cell ? 3000 : 500000;
  const WindowRunResult r =
      Runner(Experiment{.kind = ProtocolKind::Reset,
                        .inputs = protocols::split_inputs(g.n, g.ones),
                        .t = g.t,
                        .budget = max_windows,
                        .stop = StopCondition::kAllDecided})
          .run_window(*adv, g.seed);

  EXPECT_TRUE(r.agreement) << "agreement violated";
  EXPECT_TRUE(r.validity) << "validity violated";
  if (g.ones == 0.0 && r.decided) {
    EXPECT_EQ(r.decision, 0);
  }
  if (g.ones == 1.0 && r.decided) {
    EXPECT_EQ(r.decision, 1);
  }
  if (!slow_cell) {
    EXPECT_TRUE(r.all_decided) << "termination failed within the horizon";
  }
  // Unanimity fast path: one window, no matter the adversary.
  if (g.ones == 0.0 || g.ones == 1.0) {
    EXPECT_EQ(r.windows_to_first, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ResetGridTest,
                         ::testing::ValuesIn(build_grid()), grid_name);

// Input-fraction sweep at fixed (n, t): validity must track the inputs and
// termination must hold everywhere under a fair adversary.
class InputFractionTest : public ::testing::TestWithParam<int> {};

TEST_P(InputFractionTest, DecidesSomeInputValue) {
  const int ones_count = GetParam();
  const int n = 12;
  const int t = 1;
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < ones_count; ++i) inputs[static_cast<std::size_t>(i)] = 1;
  adversary::FairWindowAdversary fair;
  const WindowRunResult r =
      Runner(Experiment{.kind = ProtocolKind::Reset,
                        .inputs = inputs,
                        .t = t,
                        .budget = 500000,
                        .stop = StopCondition::kAllDecided})
          .run_window(fair, static_cast<std::uint64_t>(ones_count) + 50);
  ASSERT_TRUE(r.all_decided);
  EXPECT_TRUE(r.validity);
  if (ones_count == 0) {
    EXPECT_EQ(r.decision, 0);
  }
  if (ones_count == n) {
    EXPECT_EQ(r.decision, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFractions, InputFractionTest,
                         ::testing::Range(0, 13));

}  // namespace
}  // namespace aa::core
