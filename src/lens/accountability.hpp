// LatencyAccumulator / LatencyReport — the accountability side of the lens.
//
// Aggregates WindowTrace captures across trials with the SAME bit-identity
// discipline as core::MeasureOneAccumulator: add() and merge() touch exact
// std::int64_t tallies only (integer addition is associative and
// commutative), and finalize() performs every floating-point division in
// one deterministic pass — so ANY merge tree over any sharding of the same
// trial set finalizes to the same bytes at any thread count.
//
// finalize() produces, per sender:
//   * confirmation-time statistics — mean windows / steps from a
//     receiver's FIRST delivery from the sender to that receiver's
//     decision, plus a bucketed histogram (pod-style per-sender
//     confirmation latency);
//   * a censorship score — how far the sender's observed delivery falls
//     below the share the acceptable-window contract owes it. Definition 1
//     guarantees each receiver hears ≥ n − t senders per window, so a
//     sender's fair long-run expectation is (n − t)/n of its traffic.
//     The score is max(0, (n − t)/n − min(delivered share, confirmed
//     share)); a sender that never sent is never scored;
//   * blame lists — senders whose within-batch equivocation count is
//     nonzero (the Byzantine Equivocate signature; honest protocols
//     broadcast one value per key) and senders whose censorship score
//     exceeds the blame threshold. Fault-free runs under fair scheduling
//     produce empty lists: every share is exactly 1.
//
// The shares, scores and blame lists are functions of the row tallies
// alone (derive_accountability), so a serialized report can be checked
// against its own tallies.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "lens/trace.hpp"
#include "sim/types.hpp"

namespace aa::lens {

/// Finalized per-sender latency & accountability row.
struct SenderLatency {
  std::int64_t sent = 0;
  std::int64_t equivocations = 0;
  std::int64_t delivered = 0;
  std::int64_t suppressed = 0;
  std::int64_t confirm_count = 0;
  double mean_confirm_windows = 0.0;  ///< over confirmations; 0 if none
  double mean_confirm_steps = 0.0;
  double delivered_share = 1.0;  ///< delivered/(delivered+suppressed); 1 if no evidence
  double confirmed_share = 1.0;  ///< confirm_count/deciders; 1 if no deciders
  double censorship_score = 0.0;
  std::array<std::int64_t, WindowTrace::kBuckets> delivery_hist{};
  std::array<std::int64_t, WindowTrace::kBuckets> confirm_hist{};
};

struct LatencyReport {
  int n = 0;
  int t = 0;
  std::int64_t trials = 0;
  std::int64_t deciders = 0;  ///< decision events across all trials
  double blame_threshold = 0.0;
  std::vector<SenderLatency> senders;           ///< index = sender id
  std::vector<sim::ProcId> blamed_equivocators; ///< ascending
  std::vector<sim::ProcId> blamed_censored;     ///< ascending
};

/// Blame threshold finalize() uses unless told otherwise.
inline constexpr double kDefaultBlameThreshold = 0.1;

/// Set every field of `rep` that follows from its tallies alone: each
/// row's delivered_share, confirmed_share and censorship_score (from the
/// row's sent, delivered, suppressed and confirm_count, rep.deciders and
/// the fair share (rep.n − rep.t)/rep.n), zero confirmation means on a
/// row with no confirmations, and both blame lists, rebuilt under
/// rep.blame_threshold in ascending sender order. finalize() ends with
/// it; campaign resume runs it over a sidecar it read back, so derived
/// fields that disagree with their tallies re-serialize differently.
void derive_accountability(LatencyReport& rep);

/// Exactly-associative accumulator over WindowTrace trials. A
/// default-constructed accumulator is the merge identity (n() == -1); the
/// first add()/merge() fixes n and later folds must match it.
class LatencyAccumulator {
 public:
  /// Fold in one completed trial's trace.
  void add(const WindowTrace& trace);

  /// Fold another accumulator's tallies into this one.
  void merge(const LatencyAccumulator& other);

  /// Snapshot as a report under budget `t` and the given blame threshold.
  /// Callable any number of times; does not mutate the accumulator.
  [[nodiscard]] LatencyReport finalize(
      int t, double blame_threshold = kDefaultBlameThreshold) const;

  [[nodiscard]] int n() const noexcept { return n_; }
  [[nodiscard]] std::int64_t trials() const noexcept { return trials_; }

 private:
  void ensure(int n);

  int n_ = -1;  ///< -1: empty identity
  std::int64_t trials_ = 0;
  std::int64_t deciders_ = 0;
  // Per-sender exact tallies (index = sender).
  std::vector<std::int64_t> sent_;
  std::vector<std::int64_t> equivocations_;
  std::vector<std::int64_t> delivered_;
  std::vector<std::int64_t> suppressed_;
  std::vector<std::int64_t> confirm_count_;
  std::vector<std::int64_t> confirm_window_sum_;
  std::vector<std::int64_t> confirm_step_sum_;
  // Per-sender histograms, WindowTrace::kBuckets wide.
  std::vector<std::int64_t> delivery_hist_;
  std::vector<std::int64_t> confirm_hist_;
};

}  // namespace aa::lens
