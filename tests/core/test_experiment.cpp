// core::Experiment + core::Runner — the declarative experiment API.
#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

Experiment window_spec(int n, std::int64_t budget,
                       StopCondition stop = StopCondition::kFirstDecision) {
  Experiment spec;
  spec.kind = ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = 2;
  spec.budget = budget;
  spec.stop = stop;
  return spec;
}

TEST(Runner, StopConditionControlsRunLength) {
  const Runner first(window_spec(12, 100000, StopCondition::kFirstDecision));
  const Runner all(window_spec(12, 100000, StopCondition::kAllDecided));
  adversary::FairWindowAdversary fair_a;
  adversary::FairWindowAdversary fair_b;
  const WindowRunResult rf = first.run_window(fair_a, 7);
  const WindowRunResult ra = all.run_window(fair_b, 7);
  EXPECT_TRUE(rf.decided);
  EXPECT_TRUE(ra.all_decided);
  EXPECT_GE(ra.windows_total, rf.windows_total);
}

TEST(Runner, OneSpecManySeedsIsDeterministic) {
  const Runner runner(window_spec(12, 100000));
  auto run = [&](std::uint64_t seed) {
    adversary::FairWindowAdversary fair;
    return runner.run_window(fair, seed).windows_to_first;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(Runner, ValidatesSpec) {
  Experiment empty;  // no inputs
  EXPECT_THROW(Runner{empty}, std::invalid_argument);

  Experiment bad_t = window_spec(8, 10);
  bad_t.t = -1;
  EXPECT_THROW(Runner{bad_t}, std::invalid_argument);

  Experiment bad_byz = window_spec(8, 10);
  bad_byz.byzantine = ByzantineSpec{9, protocols::ByzantineStrategy::Silent,
                                    {}};
  EXPECT_THROW(Runner{bad_byz}, std::invalid_argument);
}

TEST(Runner, HonestPathsRejectByzantineSpec) {
  Experiment spec = window_spec(8, 10);
  spec.byzantine = ByzantineSpec{};
  const Runner runner(std::move(spec));
  adversary::FairWindowAdversary fair;
  EXPECT_THROW((void)runner.run_window(fair, 1), std::invalid_argument);
  adversary::RandomAsyncScheduler sched(Rng(1));
  EXPECT_THROW((void)runner.run_async(sched, 1), std::invalid_argument);
}

TEST(Runner, ByzantineHonoursThresholds) {
  // Custom thresholds must reach the Byzantine path's inner processes: a
  // count-0 Byzantine run with thresholds th is the same execution as an
  // honest all-decided run with thresholds th.
  const int n = 36;
  const int t = 2;
  const protocols::Thresholds th{n - 2 * t, n - 2 * t - 3,
                                 n - 2 * t - 3 - t};
  Experiment byz_spec;
  byz_spec.kind = ProtocolKind::Reset;
  byz_spec.inputs = protocols::split_inputs(n, 0.5);
  byz_spec.t = t;
  byz_spec.budget = 100000;
  byz_spec.thresholds = th;
  byz_spec.byzantine = ByzantineSpec{};
  adversary::FairWindowAdversary fair_a;
  const ByzantineRunResult b = Runner(byz_spec).run_byzantine(fair_a, 11);

  Experiment honest = byz_spec;
  honest.byzantine.reset();
  honest.stop = StopCondition::kAllDecided;
  adversary::FairWindowAdversary fair_b;
  const WindowRunResult w = Runner(honest).run_window(fair_b, 11);
  EXPECT_TRUE(b.honest_all_decided);
  EXPECT_EQ(b.windows_total, w.windows_total);
}

TEST(Runner, ByzantineWithDefaultSpecCountsEveryone) {
  // An unset byzantine spec means count = 0: the verdict quantifies over
  // all processors — the honest-world degenerate case.
  const Runner runner(window_spec(12, 100000));
  adversary::FairWindowAdversary fair;
  const ByzantineRunResult r = runner.run_byzantine(fair, 3);
  EXPECT_TRUE(r.honest_all_decided);
  EXPECT_EQ(r.honest_decided, 12);
  EXPECT_TRUE(r.honest_agreement);
}

}  // namespace
}  // namespace aa::core
