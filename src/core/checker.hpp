// Monte-Carlo measure-one checkers (Definitions 2 and 3 of the paper).
//
// Measure-one correctness and termination are probability-one statements
// over infinite executions; a simulator can falsify them (find a reachable
// violation) and can accumulate statistical evidence for them. These
// checkers run many independent seeded executions under a caller-supplied
// adversary factory and report every violation with its seed, so any
// failure is exactly reproducible.
//
// Each checker takes an Experiment spec and a CampaignContext: trials
// shard onto the context's long-lived work-stealing pool and every worker
// reuses its per-context Execution scratch across trials AND across checks
// — build one context per campaign and pass it to every check. Every
// trial verdict folds into an exactly-associative MeasureOneAccumulator
// (core/report.hpp), so the report — including its exact integer-quotient
// means — is bit-identical at any thread count.
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

/// Window-model checker on a shared campaign context: `trials` runs of
/// `spec` (budget = max acceptable windows; the stop condition is forced
/// to kAllDecided), seeds seed0, seed0+1, ... Trials are sharded across
/// the context's pool per ctx.parallel(); the report is bit-identical at
/// any thread count. When `acc` is non-null the check's tallies are ALSO
/// merged into it (the campaign summary and --resume read its exact
/// integer metric sum).
///
/// When `lat` is non-null the lens is forced on (Experiment::lens) and
/// every trial's WindowTrace is folded into it — the same associative
/// discipline, so the latency report is bit-identical at any thread count
/// too. The MeasureOneReport NEVER depends on the lens being on.
///
/// `inline_trials` runs every chunk on the calling thread even when the
/// context has a pool: the parallel-cells campaign path schedules whole
/// cells as pool jobs, and a cell job must not re-shard onto the pool it
/// occupies. Chunk boundaries and merge order depend only on
/// (trials, chunk_size), so the report bytes do not change.
[[nodiscard]] MeasureOneReport check_measure_one_window(
    const Experiment& spec, const WindowAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc = nullptr,
    lens::LatencyAccumulator* lat = nullptr, bool inline_trials = false);

/// Async crash-model checker, same shape (spec.budget = max deliveries).
[[nodiscard]] MeasureOneReport check_measure_one_async(
    const Experiment& spec, const AsyncAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc = nullptr,
    lens::LatencyAccumulator* lat = nullptr, bool inline_trials = false);

}  // namespace aa::core
