// Experiment + Runner: the declarative experiment API.
//
// An Experiment is a named-field specification of one agreement experiment —
// protocol kind, inputs, fault budget, step/window budget, thresholds, stop
// condition, and (optionally) a Byzantine corruption. A Runner executes the
// spec against an adversary, deterministically in the seed; it is the one
// way to run a trial. With designated initializers a single run stays one
// expression:
//
//   Runner(Experiment{.kind = ProtocolKind::Reset, .inputs = inputs,
//                     .t = 2, .budget = 1000})
//       .run_window(adversary, seed);
//
// One spec can be reused across many seeded runs (the Runner is immutable
// and its run methods are const and thread-safe), which is how a
// measure-one check (core/checker.hpp's MeasureOneCheck) runs its trial
// chunks on many workers — for one checker call or for every cell of a
// campaign at once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lens/trace.hpp"
#include "protocols/byzantine.hpp"
#include "protocols/factory.hpp"
#include "protocols/thresholds.hpp"
#include "sim/async.hpp"
#include "sim/window.hpp"
#include "util/thread_pool.hpp"

namespace aa::core {

/// When a run stops (before the budget runs out).
enum class StopCondition {
  kFirstDecision,  ///< stop once some processor wrote its output
  kAllDecided,     ///< stop once every live (honest) processor has
};

/// Byzantine corruption riding on top of the adversary's budget: the first
/// `count` processors lie per `strategy`; `pre_crashed` processors are
/// crashed before the first window (crash+Byzantine hybrid schedules).
struct ByzantineSpec {
  int count = 0;
  protocols::ByzantineStrategy strategy =
      protocols::ByzantineStrategy::Equivocate;
  std::vector<sim::ProcId> pre_crashed{};
};

/// Declarative experiment specification (named fields; see file comment).
/// `budget` counts acceptable windows in the window model and receiving
/// steps (deliveries) in the async crash model.
struct Experiment {
  protocols::ProtocolKind kind = protocols::ProtocolKind::Reset;
  std::vector<int> inputs;
  int t = 0;
  std::int64_t budget = 0;
  std::optional<protocols::Thresholds> thresholds{};
  StopCondition stop = StopCondition::kFirstDecision;
  std::optional<ByzantineSpec> byzantine{};
  /// Bounded-memory knob for ProtocolKind::Forgetful (tallied-round
  /// look-ahead horizon; 0 = unbounded). Ignored by the other protocols.
  int memory_k = 0;
  /// Run the engine invariant auditor (sim::Execution::audit) at every
  /// window boundary, or after every async delivery. Opt-in: O(arena
  /// slots) per audit.
  bool audit = false;
  /// Sampled auditing: audit every Nth window boundary or async delivery
  /// (0 = off). Cheap enough for always-on invariant checking in Release
  /// campaigns; `audit` overrides it to every one. Never affects a report —
  /// the auditor only throws on corruption.
  int audit_every = 0;
  /// Latency & accountability lens (lens/trace.hpp): when set, every run
  /// streams publish/deliver/suppress/decision events into the worker's
  /// WindowTrace (WorkerScratch::trace; read it after the run returns).
  /// The scratch-free run overloads capture into a run-local scratch that
  /// dies with the call, so combine the lens with the scratch overloads.
  /// Off by default; the lens never changes a MeasureOneReport.
  bool lens = false;
};

/// Outcome of one window-model run.
struct WindowRunResult {
  bool decided = false;            ///< some processor wrote its output
  bool all_decided = false;        ///< every live processor wrote its output
  int decision = sim::kBot;        ///< first decided value
  std::int64_t windows_to_first = -1;  ///< windows before the first decision
  std::int64_t windows_total = 0;  ///< windows actually run
  std::int64_t steps = 0;          ///< fine-grained steps taken
  std::int64_t total_resets = 0;
  bool agreement = true;           ///< no two outputs conflict
  bool validity = true;            ///< every output equals some input
};

/// Outcome of one async (crash-model) run.
struct AsyncRunOutcome {
  bool decided = false;
  bool all_decided = false;  ///< every live processor decided
  int decision = sim::kBot;
  std::int64_t deliveries = 0;
  std::int64_t chain_at_decision = -1;  ///< message-chain length (§5 metric)
  std::int64_t crashes = 0;
  bool hit_limit = false;
  bool agreement = true;
  bool validity = true;
};

/// Outcome of a run with Byzantine (value-lying) processors; the verdicts
/// quantify over HONEST, NON-CRASHED processors only (ids ≥ byzantine.count
/// that never crashed — a crashed processor owes no output).
struct ByzantineRunResult {
  int honest_decided = 0;        ///< live honest processors with outputs
  bool honest_all_decided = false;
  bool honest_agreement = true;  ///< no two honest outputs conflict
  bool honest_validity = true;   ///< honest outputs ∈ honest input values
  std::int64_t windows_total = 0;
};

/// Agreement / validity verdicts for a finished execution.
[[nodiscard]] bool check_agreement(const sim::Execution& exec);
[[nodiscard]] bool check_validity(const sim::Execution& exec,
                                  const std::vector<int>& inputs);

/// Per-worker reusable run state. A Runner run method given a WorkerScratch
/// rebuilds the scratch Execution in place (sim::Execution::reset) instead
/// of constructing a fresh one, so a worker that keeps its scratch across
/// trials — and across checks — reaches a steady state where a trial
/// allocates little beyond the process objects. Not thread-safe: one
/// scratch per worker thread (see CampaignContext).
struct WorkerScratch {
  std::optional<sim::Execution> exec;
  /// Per-worker lens capture arena (Experiment::lens). Re-armed by every
  /// prepared run; read it AFTER the run returns and BEFORE the worker's
  /// next trial overwrites it.
  std::optional<lens::WindowTrace> trace;
};

/// Shared execution context for a campaign: the parallel configuration, a
/// long-lived worker pool (when the config wants more than one
/// thread), and one WorkerScratch per thread that can execute work — the
/// pool's workers plus the caller (TaskGroup::wait has the calling thread
/// help run chunks). Build ONE context and thread it through every checker
/// / exhaustive / campaign call; the pool spawn/join cycle per check is
/// exactly the overhead that flattened the benches' parallel speedup. A
/// campaign puts all of its pending cells' chunks on the pool as one job
/// list, so one cell's chunks interleave with its neighbours'.
///
/// Thread-safety: worker_scratch() hands out distinct slots to distinct
/// pool workers and a dedicated slot to off-pool callers, so at most ONE
/// off-pool thread may be executing chunks at a time (the normal case: the
/// single campaign driver thread).
class CampaignContext {
 public:
  explicit CampaignContext(const ParallelConfig& par);

  [[nodiscard]] const ParallelConfig& parallel() const noexcept {
    return par_;
  }
  /// The shared pool, or nullptr when the config resolves to one thread.
  [[nodiscard]] WorkerPool* pool() noexcept { return pool_.get(); }

  /// The calling thread's scratch slot: pool worker i gets slot i, any
  /// other thread the extra caller slot.
  [[nodiscard]] WorkerScratch& worker_scratch() noexcept;

 private:
  ParallelConfig par_;
  std::unique_ptr<WorkerPool> pool_;  ///< null when serial
  std::vector<WorkerScratch> scratch_;      ///< pool workers + 1 caller slot
};

/// Executes an Experiment spec. Immutable; every run method is const,
/// deterministic in `seed`, and safe to call concurrently from multiple
/// threads (each run builds its own Execution).
class Runner {
 public:
  explicit Runner(Experiment spec);

  [[nodiscard]] const Experiment& spec() const noexcept { return spec_; }

  /// Window model (§2–§4): honest processes vs a window adversary with
  /// reset budget spec.t, for at most spec.budget acceptable windows.
  /// Requires spec.byzantine to be unset — use run_byzantine for that.
  [[nodiscard]] WindowRunResult run_window(sim::WindowAdversary& adversary,
                                           std::uint64_t seed) const;

  /// Async crash model (§5): honest processes vs an async adversary with
  /// crash budget spec.t, for at most spec.budget receiving steps.
  /// Requires spec.byzantine to be unset.
  [[nodiscard]] AsyncRunOutcome run_async(sim::AsyncAdversary& adversary,
                                          std::uint64_t seed) const;

  /// Window model with the spec's Byzantine corruption applied (treats an
  /// unset spec.byzantine as count = 0, i.e. all-honest). Always runs until
  /// every live honest processor decided or the budget elapses — the
  /// honest-verdict analogue of StopCondition::kAllDecided.
  [[nodiscard]] ByzantineRunResult run_byzantine(
      sim::WindowAdversary& adversary, std::uint64_t seed) const;

  // ---- execution-reuse overloads (campaign hot path) ----
  //
  // Same results, bit for bit, as the overloads above — the run executes in
  // `scratch.exec`, rebuilt in place via sim::Execution::reset — but a
  // worker that passes the same scratch every trial skips the per-trial
  // arena/map/ring growth entirely once warm.

  [[nodiscard]] WindowRunResult run_window(sim::WindowAdversary& adversary,
                                           std::uint64_t seed,
                                           WorkerScratch& scratch) const;
  [[nodiscard]] AsyncRunOutcome run_async(sim::AsyncAdversary& adversary,
                                          std::uint64_t seed,
                                          WorkerScratch& scratch) const;
  [[nodiscard]] ByzantineRunResult run_byzantine(
      sim::WindowAdversary& adversary, std::uint64_t seed,
      WorkerScratch& scratch) const;

 private:
  /// Rebuild (or first-build) the scratch Execution for `seed` with this
  /// spec's processes.
  sim::Execution& prepare(WorkerScratch& scratch,
                          std::vector<std::unique_ptr<sim::Process>> procs,
                          std::uint64_t seed) const;

  Experiment spec_;
};

}  // namespace aa::core
