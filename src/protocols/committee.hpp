// A simplified Kapron–Kempe–King–Saia–Sanwalani-style committee-election
// agreement ([16] in the paper), used as the CONTRAST baseline for §1's
// discussion: polylogarithmic running time against non-adaptive faults, at
// the cost of (a) a nonzero probability of an invalid/failed outcome and
// (b) total collapse against an adaptive adversary, which "can simply wait
// for the final committee to be determined and then cause faults".
//
// Substitution note: the real [16] protocol layers elections
// inside a full asynchronous Byzantine machinery; we reproduce its
// *structure* — iterated halving elections down to a small final committee
// that runs Bracha and announces the result — with costs charged per
// election round. The properties the paper contrasts (speed, non-adaptivity
// requirement, nonzero error) are structural and survive the
// simplification.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace aa::protocols {

struct CommitteeParams {
  int n = 0;                      ///< total processors
  int t = 0;                      ///< adversary's corruption budget
  bool adaptive_adversary = false;  ///< corrupt AFTER the final committee is known
  int final_committee_size = 0;   ///< 0 → default max(7, ⌈log2 n⌉)
  int rounds_per_election = 3;    ///< charged cost of one halving election
};

struct CommitteeOutcome {
  bool success = false;        ///< agreement reached on a valid value
  int decision = -1;           ///< decided value when successful
  int rounds = 0;              ///< total charged rounds (the running time)
  int final_committee_size = 0;
  int final_corrupted = 0;     ///< corrupted members of the final committee
  int election_rounds = 0;     ///< halving iterations performed
};

/// Run one committee-election agreement over the given inputs.
/// Non-adaptive: a uniformly random t-subset is corrupted up front.
/// Adaptive: the adversary corrupts the final committee after it is known
/// (up to its budget t), which defeats the protocol whenever
/// t ≥ committee size — exactly the paper's §1 observation.
[[nodiscard]] CommitteeOutcome run_committee_agreement(
    const CommitteeParams& params, const std::vector<int>& inputs, Rng& rng);

/// The probability that a uniformly random committee of size s drawn from n
/// processors with c corrupted members contains ≥ k corrupted ones
/// (hypergeometric tail) — the protocol's intrinsic failure probability.
[[nodiscard]] double committee_corruption_tail(int n, int c, int s, int k);

}  // namespace aa::protocols
