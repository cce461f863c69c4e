// Experiment F7: termination-probability tails, connecting to
// the related work the paper surveys in §1.1 — Attiya & Censor (2008) show
// that the probability a randomized agreement algorithm has NOT terminated
// after k(n − t) steps is at least 1/c^k: a geometric tail. Our protocols'
// per-round decision events are (approximately) independent coin-alignment
// events, so the measured survival function should be geometric in rounds —
// with a per-round rate that shrinks exponentially in n (Theorems 5/17).
//
// We measure P[still undecided after w windows] for the §3 algorithm under
// the split-keeper adversary, and report the fitted per-window survival
// rate against the analytic 1 − q, q = 2·P[Bin(n,1/2) ≤ t].
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/api.hpp"
#include "prob/binomial.hpp"

using namespace aa;

int main() {
  std::printf("F7: termination-probability tail (reset-agreement, split "
              "inputs, split-keeper adversary)\n\n");

  const int trials = 120;
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{10, 1},
                                                             {12, 1},
                                                             {14, 2}}) {
    // Collect windows-to-first-decision samples.
    std::vector<double> samples;
    const core::Runner runner(
        core::Experiment{.kind = protocols::ProtocolKind::Reset,
                         .inputs = protocols::split_inputs(n, 0.5),
                         .t = t,
                         .budget = 1'000'000});
    for (int trial = 0; trial < trials; ++trial) {
      adversary::SplitKeeperAdversary keeper;
      const auto r =
          runner.run_window(keeper, 7000 + static_cast<std::uint64_t>(trial));
      samples.push_back(static_cast<double>(r.windows_to_first));
    }

    // Empirical survival function at geometric checkpoints.
    Table table({"w", "P[undecided > w] measured", "geometric (1-q)^w"});
    const double q = std::min(1.0, 2.0 * prob::binom_cdf(n, t, 0.5));
    const double mean = [&] {
      RunningStats s;
      for (double x : samples) s.add(x);
      return s.mean();
    }();
    for (double frac : {0.25, 0.5, 1.0, 2.0, 3.0}) {
      const auto w = static_cast<std::int64_t>(frac * mean);
      int undecided = 0;
      for (double x : samples) {
        if (x > static_cast<double>(w)) ++undecided;
      }
      table.add_row(
          {Table::fmt_int(w),
           Table::fmt(static_cast<double>(undecided) / trials, 3),
           Table::fmt(std::pow(1.0 - q, static_cast<double>(w)), 3)});
    }
    std::printf("n=%d t=%d: mean windows %.1f, analytic 1/q = %.1f\n", n, t,
                mean, 1.0 / q);
    table.print(std::cout, "survival function");
  }
  std::printf(
      "Expected: the measured survival column tracks the geometric column —\n"
      "per-window decision events behave like independent Bernoulli(q)\n"
      "trials, the structure behind both the Attiya-Censor tail bound and\n"
      "the exponential expectation of Theorems 5/17.\n");
  return 0;
}
