// Experiment F1: the §3/§4 headline — against the split-keeper
// strongly adaptive adversary with split inputs, the reset-agreement
// algorithm's windows-to-decision grows EXPONENTIALLY in n.
//
// Columns:
//   measured mean/median/p90 windows over seeds,
//   theory:   expected rounds 1/q with q = 2·P[Bin(n,1/2) ≤ t] (the
//             per-round probability that the coin flips are too skewed for
//             the adversary to balance below T3),
//   Thm5 E:   the absolute lower bound C·e^{αn} with c = t/n (log10).
// The fit line at the bottom is least squares of log10(mean) vs n.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/api.hpp"
#include "prob/binomial.hpp"

using namespace aa;

int main() {
  std::printf("F1: exponential windows-to-decision vs n "
              "(reset-agreement, split inputs, split-keeper adversary)\n\n");

  Table table({"n", "t", "T1/T2/T3", "trials", "mean", "median", "p90", "max",
               "theory 1/q", "Thm5 log10(E)"});

  std::vector<double> xs;
  std::vector<double> ys;
  struct Row {
    int n;
    int trials;
  };
  const Row rows[] = {{8, 30}, {10, 30}, {12, 25}, {14, 25},
                      {16, 20}, {18, 15}, {20, 10}, {22, 10}, {24, 8}};
  for (const Row& row : rows) {
    const int n = row.n;
    const int t = std::max(1, n / 7);
    const auto th = protocols::canonical_thresholds(n, t);
    RunningStats stats;
    std::vector<double> samples;
    const core::Runner runner(
        core::Experiment{.kind = protocols::ProtocolKind::Reset,
                         .inputs = protocols::split_inputs(n, 0.5),
                         .t = t,
                         .budget = 2'000'000});
    for (int trial = 0; trial < row.trials; ++trial) {
      adversary::SplitKeeperAdversary keeper;
      const auto r =
          runner.run_window(keeper, 1000 + static_cast<std::uint64_t>(trial));
      stats.add(static_cast<double>(r.windows_to_first));
      samples.push_back(static_cast<double>(r.windows_to_first));
    }
    // Per-round escape: the adversary fails to balance exactly when the
    // minority coin count is ≤ t (see SplitKeeperAdversary docs).
    const double q =
        std::min(1.0, 2.0 * prob::binom_cdf(n, t, 0.5));
    const auto tc = core::theorem5_constants(n, static_cast<double>(t) / n);
    table.add_row({Table::fmt_int(n), Table::fmt_int(t),
                   std::to_string(th.t1) + "/" + std::to_string(th.t2) + "/" +
                       std::to_string(th.t3),
                   Table::fmt_int(row.trials), Table::fmt(stats.mean(), 1),
                   Table::fmt(median(samples), 1),
                   Table::fmt(percentile(samples, 0.9), 1),
                   Table::fmt(stats.max(), 0),
                   Table::fmt(prob::expected_rounds_until(q), 1),
                   Table::fmt(tc.log10_e, 3)});
    xs.push_back(n);
    ys.push_back(std::log10(std::max(1.0, stats.mean())));
  }
  table.print(std::cout, "F1 windows-to-first-decision");

  const LinearFit fit = least_squares(xs, ys);
  std::printf("log10(mean windows) ~ %.3f + %.4f * n   (r2 = %.3f)\n",
              fit.intercept, fit.slope, fit.r2);
  std::printf("positive slope == exponential growth in n; the paper's Theorem "
              "5 says any measure-one algorithm must show this shape.\n");
  return 0;
}
