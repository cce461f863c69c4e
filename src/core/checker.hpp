// Monte-Carlo measure-one checkers (Definitions 2 and 3 of the paper).
//
// Measure-one correctness and termination are probability-one statements
// over infinite executions; a simulator can falsify them (find a reachable
// violation) and can accumulate statistical evidence for them. These
// checkers run many independent seeded executions under a caller-supplied
// adversary factory and report every violation with its seed, so any
// failure is exactly reproducible.
//
// One chunk body serves every caller: MeasureOneCheck::run_trials runs
// trials [begin, end) of one check into a TrialTally. The checkers below
// run one check's chunks on a CampaignContext's long-lived worker
// pool; the campaign (core/campaign.hpp) runs the chunks of all its cells
// as one job list on the same pool. Every worker reuses its per-context
// Execution scratch across trials AND across checks — build one context
// per campaign and pass it to every check. Every trial verdict folds into
// an exactly-associative MeasureOneAccumulator (core/report.hpp), so the
// report — including its exact integer-quotient means — is bit-identical
// at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/experiment.hpp"
#include "core/report.hpp"

namespace aa::core {

/// Fresh adversary per trial (adversaries may be stateful).
using WindowAdversaryFactory =
    std::function<std::unique_ptr<sim::WindowAdversary>(std::uint64_t seed)>;
using AsyncAdversaryFactory =
    std::function<std::unique_ptr<sim::AsyncAdversary>(std::uint64_t seed)>;

/// What one chunk of trials folds into: the verdict tallies and, with the
/// lens on, the latency tallies. Both are exact integers, so merging the
/// tallies of a check's chunks gives the same bytes in any order. The
/// window model also counts the windows its trials simulated and the
/// trials that settled early (WindowRunResult::settled) — work counters
/// for the timing sidecar, never part of a report.
struct TrialTally {
  MeasureOneAccumulator acc;
  lens::LatencyAccumulator lat;
  std::int64_t windows = 0;
  std::int64_t settled = 0;

  void merge(const TrialTally& other) {
    acc.merge(other.acc);
    lat.merge(other.lat);
    windows += other.windows;
    settled += other.settled;
  }
};

/// One measure-one check, ready to run in chunks: the Runner (stop
/// condition forced to kSettled; lens forced on when `lens`), the
/// model's adversary factory and the seed block seed0, seed0+1, ...
/// Immutable; run_trials is const and safe to call from many workers at
/// once, each with its own scratch and tally.
class MeasureOneCheck {
 public:
  /// Window model (§2–§4): spec.budget = max acceptable windows.
  MeasureOneCheck(const Experiment& spec, WindowAdversaryFactory make_adversary,
                  std::uint64_t seed0, bool lens);
  /// Async crash model (§5): spec.budget = max deliveries.
  MeasureOneCheck(const Experiment& spec, AsyncAdversaryFactory make_adversary,
                  std::uint64_t seed0, bool lens);

  /// Run trials [begin, end) (seeds seed0 + i) on `scratch`, folding each
  /// verdict into out.acc and, with the lens on, each trace into out.lat.
  void run_trials(std::int64_t begin, std::int64_t end,
                  WorkerScratch& scratch, TrialTally& out) const;

  /// True for the async model: MeasureOneAccumulator::finalize's metric
  /// convention.
  [[nodiscard]] bool async() const noexcept {
    return static_cast<bool>(make_async_);
  }

 private:
  Runner runner_;
  WindowAdversaryFactory make_window_;  ///< set iff window model
  AsyncAdversaryFactory make_async_;    ///< set iff async model
  std::uint64_t seed0_;
  bool lens_;
};

/// Window-model checker on a shared campaign context: `trials` runs of
/// `spec` (budget = max acceptable windows; the stop condition is forced
/// to kSettled, whose verdicts are kAllDecided's), seeds seed0, seed0+1,
/// ... The check's chunks run on the context's pool per ctx.parallel();
/// the report is bit-identical at any thread count. When `acc` is
/// non-null the check's tallies are ALSO merged into it.
///
/// When `lat` is non-null the lens is forced on (Experiment::lens) and
/// every trial's WindowTrace is folded into it — the same associative
/// discipline, so the latency report is bit-identical at any thread count
/// too. The MeasureOneReport NEVER depends on the lens being on.
[[nodiscard]] MeasureOneReport check_measure_one_window(
    const Experiment& spec, const WindowAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc = nullptr,
    lens::LatencyAccumulator* lat = nullptr);

/// Async crash-model checker, same shape (spec.budget = max deliveries).
[[nodiscard]] MeasureOneReport check_measure_one_async(
    const Experiment& spec, const AsyncAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc = nullptr,
    lens::LatencyAccumulator* lat = nullptr);

}  // namespace aa::core
