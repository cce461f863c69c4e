// Experiment F3: Lemma 9 — Talagrand's inequality
//     P[A]·(1 − P[B(A,d)]) ≤ e^{−d²/4n}
// three ways:
//  (a) exact enumeration over random small product spaces with random sets
//      (worst observed tightness per (n, d));
//  (b) closed-form Hamming balls over the uniform n-cube at large n, where
//      P[A] and P[B(A,d)] are binomial CDFs — exact at n = 128;
//  (c) Monte-Carlo spot checks.
#include <cstdio>
#include <iostream>

#include "core/api.hpp"
#include "prob/binomial.hpp"

using namespace aa;

int main() {
  std::printf("F3: Talagrand inequality (Lemma 9) tightness\n\n");

  // (a) exact over random spaces/sets.
  {
    Table table({"n", "d", "spaces", "worst lhs", "bound", "max tightness",
                 "violations"});
    Rng rng(2024);
    for (int n : {6, 8, 10}) {
      for (int d : {1, 2, 3, n / 2}) {
        double worst_lhs = 0.0;
        double worst_tight = 0.0;
        int violations = 0;
        const int spaces = 40;
        for (int s = 0; s < spaces; ++s) {
          std::vector<prob::FiniteDist> coords;
          for (int i = 0; i < n; ++i)
            coords.push_back(prob::FiniteDist::random(2, rng));
          const prob::ProductSpace space{coords};
          std::vector<prob::Point> A;
          space.enumerate([&](const prob::Point& x, double) {
            if (rng.bernoulli(0.25)) A.push_back(x);
          });
          if (A.empty()) continue;
          const auto c = prob::check_exact(space, A, d);
          if (!c.holds) ++violations;
          worst_lhs = std::max(worst_lhs, c.lhs);
          worst_tight = std::max(worst_tight, c.tightness);
        }
        table.add_row({Table::fmt_int(n), Table::fmt_int(d),
                       Table::fmt_int(spaces), Table::fmt(worst_lhs, 4),
                       Table::fmt(prob::talagrand_bound(d, n), 4),
                       Table::fmt(worst_tight, 3),
                       Table::fmt_int(violations)});
      }
    }
    table.print(std::cout, "F3a exact (random spaces & sets)");
  }

  // (b) closed form: A = Hamming ball of radius r around 0 over uniform
  // n-cube. P[A] = P[Bin(n) ≤ r]; B(A, d) = ball radius r + d.
  {
    Table table({"n", "r", "d", "P[A]", "1-P[B]", "lhs", "bound", "tightness"});
    for (int n : {64, 128}) {
      for (int r : {n / 4, n / 2 - 2}) {
        for (int d : {2, 4, 8, 16}) {
          const double pa = prob::binom_cdf(n, r, 0.5);
          const double pball = prob::binom_cdf(n, r + d, 0.5);
          const double lhs = pa * (1.0 - pball);
          const double bound = prob::talagrand_bound(d, n);
          table.add_row({Table::fmt_int(n), Table::fmt_int(r),
                         Table::fmt_int(d), Table::fmt_sci(pa, 2),
                         Table::fmt_sci(1.0 - pball, 2),
                         Table::fmt_sci(lhs, 3), Table::fmt_sci(bound, 3),
                         Table::fmt(bound > 0 ? lhs / bound : 0.0, 4)});
        }
      }
    }
    table.print(std::cout, "F3b closed-form Hamming balls (uniform cube)");
  }

  // (c) Monte-Carlo spot check at n = 16 against the exact value: A is the
  // weight ≤ 3 Hamming ball (an enumerable, samplable set).
  {
    Table table({"n", "d", "samples", "lhs(mc)", "lhs(exact)", "bound",
                 "holds"});
    const int n = 16;
    const prob::ProductSpace space =
        prob::ProductSpace::iid(prob::FiniteDist::uniform(2), n);
    std::vector<prob::Point> A;
    space.enumerate([&](const prob::Point& x, double) {
      int w = 0;
      for (int xi : x) w += xi;
      if (w <= 3) A.push_back(x);
    });
    Rng rng(5);
    for (int d : {2, 4, 6}) {
      const auto mc = prob::check_mc(space, A, d, 100000, rng);
      const double pa = prob::binom_cdf(n, 3, 0.5);
      const double pball = prob::binom_cdf(n, 3 + d, 0.5);
      const double exact_lhs = pa * (1.0 - pball);
      table.add_row({Table::fmt_int(n), Table::fmt_int(d),
                     Table::fmt_int(100000), Table::fmt_sci(mc.lhs, 3),
                     Table::fmt_sci(exact_lhs, 3),
                     Table::fmt_sci(mc.bound, 3), mc.holds ? "yes" : "NO"});
    }
    table.print(std::cout, "F3c Monte-Carlo vs exact");
  }

  std::printf("Expected: zero violations everywhere; tightness < 1 (the "
              "constant 1/4 in the exponent is not saturated by these "
              "families).\n");
  return 0;
}
