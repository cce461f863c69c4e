// Threshold parameters T1 ≥ T2 ≥ T3 of the §3 algorithm, the constraints
// Theorem 4 places on them, and the step-3 rule they parameterise:
//
//     n − 2t ≥ T1 ≥ T2 ≥ T3 + t,   2·T3 > n.
//
// Theorem 4's canonical setting for t < n/6 is T1 = n − 2t, T2 = T1,
// T3 = n − 3t. Smaller t admits T2 < T1, which speeds decisions (experiment
// T1; see the README's "Benches and examples").
//
// Which votes step 3 reads. Today ResetProcess, ForgetfulProcess and the
// abstract window (core/zsets) apply step 3 to the FIRST T1 votes of a
// round, so 2·T3 > T1 is enough for at most one value to reach T3. For
// ResetProcess that reading breaks agreement under the `random` window
// adversary: a campaign at canonical thresholds saw 127 violations in
// 24 000 trials (ROADMAP, "Fix §3 step 3"). Say p decides v on T2 v-votes
// among its first T1; another processor's first T1 may then hold every ¬v
// vote and fewer than T3 v-votes, so it flips a coin. Reading the whole
// delivered row instead counts up to n votes, so it needs 2·T3 > n, not
// 2·T3 > T1.
#pragma once

#include <string>

#include "sim/types.hpp"

namespace aa::protocols {

struct Thresholds {
  int t1 = 0;  ///< messages to wait for per round
  int t2 = 0;  ///< same-value count that triggers a DECISION
  int t3 = 0;  ///< same-value count that deterministically adopts x = v

  friend bool operator==(const Thresholds&, const Thresholds&) = default;
};

/// Step3::estimate when no value reached T3: the caller draws a fresh bit.
inline constexpr int kFlipCoin = 2;

/// What step 3 does with one round's tally.
struct Step3 {
  int decide;    ///< value to write to a still-unset output, or sim::kBot
  int estimate;  ///< the new x: 0, 1, or kFlipCoin
};

/// The §3 step-3 rule on `zeros` 0-votes and `ones` 1-votes: ≥ T2 for v
/// decides v, ≥ T3 for v adopts v, otherwise flip a coin (0 is tested
/// first). Every caller passes the first T1 votes of a round today, a
/// reading that broke agreement in 127 of 24 000 `random` trials; the
/// whole-row reading needs 2·T3 > n, not 2·T3 > T1 (see the file comment).
[[nodiscard]] constexpr Step3 step3(const Thresholds& th, int zeros,
                                    int ones) noexcept {
  const int decide = zeros >= th.t2 ? 0 : ones >= th.t2 ? 1 : sim::kBot;
  const int estimate = zeros >= th.t3 ? 0 : ones >= th.t3 ? 1 : kFlipCoin;
  return {decide, estimate};
}

/// Step 3's precondition when `counted` votes of a round are tallied:
/// T1 ≥ T2 ≥ T3 > 0, and 2·T3 > counted, so at most one value can reach
/// T3 and a decided value is also the adopted one. ResetProcess passes T1
/// (its first-T1 reading), ForgetfulProcess n.
/// Throws std::invalid_argument, prefixed with `who`, when either fails.
void require_step3_thresholds(const Thresholds& th, int counted,
                              const char* who);

/// Theorem 4's canonical thresholds: T1 = T2 = n − 2t, T3 = n − 3t.
[[nodiscard]] Thresholds canonical_thresholds(int n, int t);

/// Check every Theorem 4 constraint; on failure returns a human-readable
/// explanation, on success an empty string.
[[nodiscard]] std::string threshold_violation(int n, int t,
                                              const Thresholds& th);

/// True iff threshold_violation is empty.
[[nodiscard]] bool thresholds_valid(int n, int t, const Thresholds& th);

/// Largest t for which canonical thresholds satisfy Theorem 4 at this n
/// (i.e. the resilience ceiling: the biggest t < n/6 that still admits a
/// valid setting; returns 0 if none).
[[nodiscard]] int max_supported_t(int n);

}  // namespace aa::protocols
