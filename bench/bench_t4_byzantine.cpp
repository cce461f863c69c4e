// Experiment T4: the §2 incomparability, measured.
//
// "[The strongly adaptive adversary] has the additional power to erase
//  processor memory, but it lacks the power to have corrupted processors
//  'lie' about their local random bits."
//
// We give f processors that lying power (ByzantineProcess wrappers) and
// measure honest-processor agreement/validity/termination:
//   * Bracha (designed for t < n/3 Byzantine) keeps honest agreement for
//     f ≤ t under every lying strategy;
//   * the §3 reset-agreement algorithm — built for erasure, not lies —
//     loses honest agreement or validity once liars appear;
//   * conversely T2 already showed Bracha dies under resets that
//     reset-agreement shrugs off. Neither adversary subsumes the other.
#include <cstdio>
#include <iostream>

#include "core/api.hpp"

using namespace aa;

int main() {
  std::printf("T4: Byzantine (value-lying) processors vs protocols "
              "(fair scheduling; the lying is the only fault)\n\n");
  Table table({"protocol", "n", "t", "f", "strategy", "honest agree",
               "honest valid", "honest done"});

  const int trials = 8;
  const protocols::ByzantineStrategy strategies[] = {
      protocols::ByzantineStrategy::Equivocate,
      protocols::ByzantineStrategy::FlipAll,
      protocols::ByzantineStrategy::Silent,
      protocols::ByzantineStrategy::RandomLie};

  struct Row {
    protocols::ProtocolKind kind;
    int n;
    int t;
  };
  // Bracha at its design point t < n/3; reset-agreement at its t < n/6.
  for (const Row& row : {Row{protocols::ProtocolKind::Bracha, 10, 3},
                         Row{protocols::ProtocolKind::Reset, 13, 2}}) {
    for (int f = 1; f <= row.t; ++f) {
      for (const auto strategy : strategies) {
        int agree = 0;
        int valid = 0;
        int done = 0;
        const core::Runner runner(core::Experiment{
            .kind = row.kind,
            .inputs = protocols::split_inputs(row.n, 0.5),
            .t = row.t,
            .budget = 1200,
            .byzantine =
                core::ByzantineSpec{.count = f, .strategy = strategy}});
        for (int trial = 0; trial < trials; ++trial) {
          adversary::FairWindowAdversary fair;
          const auto r = runner.run_byzantine(
              fair, static_cast<std::uint64_t>(trial) * 11 + 3);
          if (r.honest_agreement) ++agree;
          if (r.honest_validity) ++valid;
          if (r.honest_all_decided) ++done;
        }
        table.add_row({protocols::protocol_kind_name(row.kind),
                       Table::fmt_int(row.n), Table::fmt_int(row.t),
                       Table::fmt_int(f),
                       protocols::byzantine_strategy_name(strategy),
                       std::to_string(agree) + "/" + std::to_string(trials),
                       std::to_string(valid) + "/" + std::to_string(trials),
                       std::to_string(done) + "/" + std::to_string(trials)});
      }
    }
  }
  table.print(std::cout, "T4 lying processors");
  std::printf(
      "Reading: honest SAFETY (agree/valid) holds everywhere. Bracha also\n"
      "keeps liveness against equivocators, silencers, and random liars for\n"
      "every f <= t (per-payload RBC quorums); systematic flip-all liars\n"
      "stall its liveness — the gap Bracha's validation layer (out of scope,\n"
      "see protocols/bracha.hpp) exists to close. Reset-agreement, built\n"
      "for erasure rather than lies, loses liveness to equivocate AND\n"
      "flip-all: together with T2's reset-storm column (Bracha stalls,\n"
      "reset-agreement sails) this exhibits the paper's §2 incomparability\n"
      "in both directions.\n");
  return 0;
}
