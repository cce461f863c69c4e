// Experiment F5: Theorem 17 — forgetful, fully communicative
// algorithms against a classic asynchronous crash adversary need message
// chains that grow exponentially in n, with t = cn.
//
// The adversary is the AsyncSplitKeeper: pure scheduling (zero crashes,
// trivially within any budget), balancing each processor's consumed votes.
// We report rounds and the §5 running-time metric: message-chain length at
// the first decision. The theory column is 1/q with
// q = 2·P[Bin(n) ≤ 2t] (the per-round probability the coin flips are too
// skewed to balance below T3 = n − 3t given T1 = n − t).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/api.hpp"
#include "prob/binomial.hpp"

using namespace aa;

int main() {
  std::printf("F5: crash-model lower bound (forgetful + fully communicative, "
              "async split-keeper, split inputs)\n\n");
  Table table({"n", "t", "trials", "mean rounds", "mean chain", "max chain",
               "theory 1/q"});

  std::vector<double> xs;
  std::vector<double> ys;
  struct Row {
    int n;
    int trials;
  };
  // t = 1 fixed: the escape event is "minority ≤ 2t", which for fixed t
  // decays exponentially in n — the cleanest slice of the theorem.
  for (const Row& row : {Row{8, 20}, Row{10, 20}, Row{12, 15}, Row{14, 10},
                         Row{16, 6}}) {
    const int n = row.n;
    const int t = 1;
    RunningStats rounds;
    RunningStats chain;
    const core::Runner runner(
        core::Experiment{.kind = protocols::ProtocolKind::Forgetful,
                         .inputs = protocols::split_inputs(n, 0.5),
                         .t = t,
                         .budget = 500'000'000});
    for (int trial = 0; trial < row.trials; ++trial) {
      adversary::AsyncSplitKeeper keeper;
      const auto r =
          runner.run_async(keeper, 9000 + static_cast<std::uint64_t>(trial));
      if (!r.decided) continue;  // hit the (enormous) cap; skip
      // Rounds ≈ deliveries per round is n·T1; recover from chain instead:
      // each round adds 2 to the chain (vote + trigger), so chain/2 ≈ rounds.
      chain.add(static_cast<double>(r.chain_at_decision));
      rounds.add(static_cast<double>(r.chain_at_decision) / 2.0);
    }
    const double q = std::min(1.0, 2.0 * prob::binom_cdf(n, 2 * t, 0.5));
    table.add_row({Table::fmt_int(n), Table::fmt_int(t),
                   Table::fmt_int(row.trials), Table::fmt(rounds.mean(), 1),
                   Table::fmt(chain.mean(), 1), Table::fmt(chain.max(), 0),
                   Table::fmt(prob::expected_rounds_until(q), 1)});
    xs.push_back(n);
    ys.push_back(std::log10(std::max(1.0, chain.mean())));
  }
  table.print(std::cout, "F5 message-chain length at first decision");
  const LinearFit fit = least_squares(xs, ys);
  std::printf("log10(mean chain) ~ %.3f + %.4f * n   (r2 = %.3f)\n",
              fit.intercept, fit.slope, fit.r2);
  std::printf("Positive slope == exponential chain growth: Theorem 17's "
              "bound realized by a crash-free scheduling adversary.\n");
  return 0;
}
