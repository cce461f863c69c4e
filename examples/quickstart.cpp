// Quickstart: run the paper's §3 reset-tolerant agreement protocol on
// n = 16 processors with a t = 2 reset budget against three adversaries,
// and print what happened.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/api.hpp"

using namespace aa;

namespace {

void run_one(const char* label, sim::WindowAdversary& adv,
             const std::vector<int>& inputs, int t, std::uint64_t seed) {
  const core::WindowRunResult r =
      core::Runner(core::Experiment{.kind = protocols::ProtocolKind::Reset,
                                    .inputs = inputs,
                                    .t = t,
                                    .budget = 100000,
                                    .stop = core::StopCondition::kAllDecided})
          .run_window(adv, seed);
  std::printf("%-14s decided=%s value=%d windows_to_first=%lld resets=%lld "
              "agreement=%s validity=%s\n",
              label, r.decided ? "yes" : "no ", r.decision,
              static_cast<long long>(r.windows_to_first),
              static_cast<long long>(r.total_resets),
              r.agreement ? "ok" : "VIOLATED",
              r.validity ? "ok" : "VIOLATED");
}

}  // namespace

int main() {
  const int n = 16;
  const int t = 2;  // < n/6
  std::printf("reset-agreement, n=%d, t=%d, canonical thresholds ", n, t);
  const auto th = protocols::canonical_thresholds(n, t);
  std::printf("(T1=%d T2=%d T3=%d)\n\n", th.t1, th.t2, th.t3);

  // Unanimous inputs: Theorem 4's fast path — decision in the very first
  // acceptable window, no matter the adversary.
  const auto unanimous = protocols::unanimous_inputs(n, 1);
  // Split inputs: the adversarially hard case.
  const auto split = protocols::split_inputs(n, 0.5);

  std::printf("[unanimous inputs]\n");
  {
    adversary::FairWindowAdversary fair;
    run_one("fair", fair, unanimous, t, 1);
    adversary::ResetStormAdversary storm(t, Rng(7));
    run_one("reset-storm", storm, unanimous, t, 2);
    adversary::SplitKeeperAdversary keeper;
    run_one("split-keeper", keeper, unanimous, t, 3);
  }

  std::printf("\n[split inputs]\n");
  {
    adversary::FairWindowAdversary fair;
    run_one("fair", fair, split, t, 4);
    adversary::ResetStormAdversary storm(t, Rng(8));
    run_one("reset-storm", storm, split, t, 5);
    adversary::SplitKeeperAdversary keeper;
    run_one("split-keeper", keeper, split, t, 6);
  }

  std::printf("\nNote how the split-keeper stretches the split-input run: "
              "that gap grows exponentially with n (Theorem 5; see "
              "bench_f1_exponential_rounds).\n");
  return 0;
}
