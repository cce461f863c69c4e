// Exhaustive model checker for the §3 algorithm at small n.
//
// Monte-Carlo checkers (core/checker.hpp) accumulate statistical evidence;
// this module proves/refutes the Definition 2 safety invariants for a tiny
// instance OUTRIGHT by breadth-first exploration of EVERY execution of the
// abstract lockstep model over a bounded number of acceptable windows:
// every delivery set S (|S| ≥ n − t), every reset set R (|R| ≤ t), and
// every coin outcome — the canonical common-S window family the §4 proofs
// quantify over.
//
// Checked invariants on every reachable configuration:
//   * agreement — no configuration holds both a 0 and a 1 output;
//   * validity  — every written output equals some processor's input.
//
// A violation is returned as a concrete witness configuration. The checker
// is also the negative-testing tool: feed it broken thresholds (or a
// crafted start configuration) and it FINDS the bad execution.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/zsets.hpp"
#include "protocols/thresholds.hpp"

namespace aa::core {

class CampaignContext;  // core/experiment.hpp

struct ExhaustiveOptions {
  int max_depth = 3;                  ///< windows to unroll
  std::size_t max_configs = 200000;   ///< exploration budget (dedup'd)
};

struct ExhaustiveReport {
  std::int64_t configs_explored = 0;  ///< distinct configurations visited
  std::int64_t transitions = 0;       ///< windows applied (incl. duplicates)
  int depth_completed = 0;            ///< full BFS levels finished
  bool budget_exhausted = false;      ///< hit max_configs before max_depth
  bool agreement_ok = true;
  bool validity_ok = true;
  std::optional<AbstractConfig> violation;  ///< first witness, if any

  [[nodiscard]] bool clean() const noexcept {
    return agreement_ok && validity_ok;
  }
};

/// Explore every execution from the initial configuration given by
/// `inputs`. Validity is judged against `inputs`. The CampaignContext
/// overload shards successor generation (the expensive part) onto the
/// context's pool; dedup and invariant checking stay serial in canonical
/// order, so the report is bit-identical at any thread count. The other
/// overload runs on one thread.
[[nodiscard]] ExhaustiveReport exhaustive_check(
    int t, const protocols::Thresholds& th, const std::vector<int>& inputs,
    const ExhaustiveOptions& options, CampaignContext& ctx);
[[nodiscard]] ExhaustiveReport exhaustive_check(
    int t, const protocols::Thresholds& th, const std::vector<int>& inputs,
    const ExhaustiveOptions& options = {});

/// Explore from an arbitrary start configuration (reachability of `start`
/// is the caller's claim). `valid_values[v]` marks output value v as
/// permitted.
[[nodiscard]] ExhaustiveReport exhaustive_check_from(
    int t, const protocols::Thresholds& th, const AbstractConfig& start,
    const std::array<bool, 2>& valid_values, const ExhaustiveOptions& options,
    CampaignContext& ctx);
[[nodiscard]] ExhaustiveReport exhaustive_check_from(
    int t, const protocols::Thresholds& th, const AbstractConfig& start,
    const std::array<bool, 2>& valid_values,
    const ExhaustiveOptions& options = {});

}  // namespace aa::core
