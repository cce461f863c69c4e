// Experiment F2: Theorem 4's fast path and its decay.
// At fixed n, sweep the fraction of 1-inputs from 0 (unanimous) to 1/2
// (maximally split) against both the fair and split-keeper adversaries.
// Unanimity decides in window 1 regardless of the adversary; the
// adversary's leverage grows as the inputs approach an even split.
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "core/api.hpp"

using namespace aa;

namespace {

double mean_windows(sim::WindowAdversary& (*make)(), int n, int t, int ones,
                    int trials) {
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < ones; ++i) inputs[static_cast<std::size_t>(i)] = 1;
  const core::Runner runner(
      core::Experiment{.kind = protocols::ProtocolKind::Reset,
                       .inputs = std::move(inputs),
                       .t = t,
                       .budget = 500000});
  RunningStats stats;
  for (int trial = 0; trial < trials; ++trial) {
    const auto r = runner.run_window(
        make(), 4000 + static_cast<std::uint64_t>(trial) * 7 +
                    static_cast<std::uint64_t>(ones) * 1009);
    stats.add(static_cast<double>(r.windows_to_first));
  }
  return stats.mean();
}

sim::WindowAdversary& fair_instance() {
  static adversary::FairWindowAdversary fair;
  return fair;
}
sim::WindowAdversary& keeper_instance() {
  static adversary::SplitKeeperAdversary keeper;
  return keeper;
}

}  // namespace

int main() {
  const int n = 16;
  const int t = 2;
  const int trials = 20;
  std::printf("F2: windows-to-decision vs input imbalance "
              "(reset-agreement, n=%d, t=%d, %d trials/point)\n\n",
              n, t, trials);

  Table table({"#ones", "fair mean", "split-keeper mean", "keeper/fair"});
  for (int ones = 0; ones <= n / 2; ++ones) {
    const double fair = mean_windows(&fair_instance, n, t, ones, trials);
    const double keeper = mean_windows(&keeper_instance, n, t, ones, trials);
    table.add_row({Table::fmt_int(ones), Table::fmt(fair, 2),
                   Table::fmt(keeper, 2),
                   Table::fmt(keeper / std::max(1.0, fair), 1)});
  }
  table.print(std::cout, "F2 windows-to-first-decision by #ones");
  std::printf(
      "Row 0 (unanimous) decides in window 1 under BOTH adversaries (Theorem\n"
      "4 fast path); tiny minorities (#ones <= T1 - T3 = %d here) are\n"
      "absorbed deterministically in window 2. Beyond that the first round\n"
      "re-randomizes every estimate, so the mean plateaus at the split-input\n"
      "level and only the adversary (ordering) matters — a ~10x slowdown at\n"
      "n = 16 that grows exponentially with n (see F1).\n",
      protocols::canonical_thresholds(n, t).t1 -
          protocols::canonical_thresholds(n, t).t3);
  return 0;
}
