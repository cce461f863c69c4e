// Measure-one trial reports and their hierarchical, exactly-associative
// aggregation.
//
// Every report — a checker's, a campaign cell's, a campaign summary — is
// folded by one path, MeasureOneAccumulator, which holds EXACT INTEGERS
// only: counter tallies plus an int64 sum of the decision metric (both
// measured metrics — windows-to-first-decision and chain-at-decision — are
// integers by construction). Integer addition is associative and
// commutative, and violating seeds are canonicalised by sorting at
// finalize, so ANY merge tree over any sharding of the same trial set
// finalizes to the same bytes, and the reported mean is the correctly
// rounded quotient of the integer sum by the deciding-trial count (exact
// conversion while the sum stays below 2^53). That is
// the contract behind "every report is byte-identical at --threads 1 and
// 8" (checker chunks, campaign shards 1/4/16, fresh vs resumed cells).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lens/accountability.hpp"

namespace aa::core {

/// Aggregate result of a batch of measure-one trials (Definitions 2 and 3).
struct MeasureOneReport {
  int trials = 0;
  int agreement_violations = 0;
  int validity_violations = 0;
  int decided_runs = 0;        ///< trials where some processor decided
  int all_decided_runs = 0;    ///< trials where all live processors decided
  /// Mean windows to the first decision, over deciding runs (window model).
  /// Async reports mirror their mean chain length here (campaign cell
  /// artifacts serialize this field); prefer mean_chain_at_decision there.
  double mean_windows_to_first = 0.0;
  /// Mean message-chain length at the first decision, over deciding runs
  /// (async model; 0 for window-model reports).
  double mean_chain_at_decision = 0.0;
  std::vector<std::uint64_t> violating_seeds;  ///< ascending

  [[nodiscard]] bool clean() const noexcept {
    return agreement_violations == 0 && validity_violations == 0;
  }
};

/// Verdict of one trial, stripped to what aggregation needs. `metric` is
/// the model's decision-cost measure — windows to the first decision
/// (window model) or message-chain length at decision (async model) — and
/// is only read when `decided`.
struct TrialVerdict {
  bool agreement = true;
  bool validity = true;
  bool decided = false;
  bool all_decided = false;
  std::int64_t metric = 0;
};

/// Exactly-associative accumulator over TrialVerdicts. add() and merge()
/// touch integers only; finalize() sorts the violating seeds and performs
/// the single floating-point division, so
///
///   finalize(add every trial serially)
///     == finalize(merge(shard partials, in any tree shape))
///
/// bit for bit, for every sharding of the same trial set.
class MeasureOneAccumulator {
 public:
  /// Fold in one trial (seed recorded only when the trial violated).
  void add(std::uint64_t seed, const TrialVerdict& v);

  /// Fold another accumulator's tallies into this one.
  void merge(const MeasureOneAccumulator& other);

  /// Snapshot as a report. `async_metric` mirrors the mean into
  /// mean_chain_at_decision (the async checkers' convention). Callable any
  /// number of times; does not mutate the accumulator.
  [[nodiscard]] MeasureOneReport finalize(bool async_metric = false) const;

  [[nodiscard]] std::int64_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::int64_t violations() const noexcept {
    return agreement_violations_ + validity_violations_;
  }
  /// Exact integer metric sum over deciding trials — serialized into
  /// campaign cell artifacts so a resumed cell restores to the same bits.
  [[nodiscard]] std::int64_t metric_sum() const noexcept {
    return metric_sum_;
  }

  /// Rebuild an accumulator from serialized exact tallies (the campaign
  /// --resume path). Equivalent to an accumulator that add()ed exactly the
  /// original trials: merging a restored cell into a summary yields the
  /// same bytes as merging the freshly computed cell.
  void restore(std::int64_t trials, std::int64_t agreement_violations,
               std::int64_t validity_violations, std::int64_t decided_runs,
               std::int64_t all_decided_runs, std::int64_t metric_sum,
               std::span<const std::uint64_t> violating_seeds);

 private:
  std::int64_t trials_ = 0;
  std::int64_t agreement_violations_ = 0;
  std::int64_t validity_violations_ = 0;
  std::int64_t decided_runs_ = 0;
  std::int64_t all_decided_runs_ = 0;
  std::int64_t metric_sum_ = 0;  ///< over deciding trials; exact (integers)
  std::vector<std::uint64_t> violating_seeds_;  ///< unordered until finalize
};

/// Render a finalized lens report (lens/accountability.hpp) as JSON with
/// the campaign artifacts' serialization discipline: fixed key order,
/// %.17g doubles (round-trip exact), newline-terminated. Two reports with
/// the same tallies therefore serialize to the same bytes — the string is
/// directly comparable in bit-identity tests and safe to hand to
/// write_file_atomic.
[[nodiscard]] std::string latency_report_json(const lens::LatencyReport& rep);

/// Read a lens report back through latency_report_json's own layout: true
/// iff `text` is exactly what it writes for a report of `n` senders with
/// this `t` and `trials` (the identity the caller expects), leaving the
/// report in `rep`. A number spelled other than the writer spells it still
/// reads; compare latency_report_json(rep) with `text` to reject it.
[[nodiscard]] bool latency_report_from_json(const std::string& text, int n,
                                            int t, std::int64_t trials,
                                            lens::LatencyReport& rep);

}  // namespace aa::core
