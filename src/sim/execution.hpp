// Execution: one run of an algorithm under adversarial control, expressed as
// the fine-grained step sequence of §2 (sending / receiving / resetting
// steps, plus crash for the §5 model).
//
// Engine-enforced model invariants:
//  * A sending step is a complete response to prior events: two consecutive
//    sending steps with no intervening receiving/resetting step make the
//    second a no-op (DESIGN.md decision D1).
//  * Receiving steps are the only randomized steps; each processor draws
//    from its own forked Rng stream (decision D3).
//  * The output bit is write-once: the engine snapshots it around every step
//    and faults if a protocol ever changes a written output.
//  * Resets erase staged (unsent) messages too — erased memory cannot send.
//  * Crashed processors take no further steps; crashing is permanent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sim/buffer.hpp"
#include "sim/plan.hpp"
#include "sim/process.hpp"
#include "sim/types.hpp"
#include "util/rng.hpp"

namespace aa::lens {
class WindowTrace;
}  // namespace aa::lens

namespace aa::sim {

/// One recorded step (kept only when ExecutionConfig::record_events).
struct Event {
  StepKind kind;
  ProcId proc;
  MsgId msg = kNoMsg;       ///< delivered message (Receive only)
  std::int64_t window = 0;  ///< window counter at the time of the step
};

/// Record of a decision (output-bit write).
struct Decision {
  ProcId proc;
  int value;                ///< 0 or 1
  std::int64_t window;      ///< window index at decision time
  std::int64_t step;        ///< global step index at decision time
  std::int64_t chain;       ///< message-chain depth of the decider
};

struct ExecutionConfig {
  bool record_events = false;  ///< keep the full step log (memory-heavy)
  /// Run the invariant auditor (Execution::audit) at every window boundary
  /// (end_window). Opt-in: O(slots) per
  /// window, meant for chaos runs, CI sanitizer jobs and debugging.
  bool audit = false;
  /// Sampled auditing: audit at every Nth window boundary (those where
  /// window_index % N == 0; 0 = off). Cheap enough to leave on in Release
  /// campaigns — the per-window cost amortizes to O(slots)/N. `audit`
  /// overrides this to every-window when both are set. Auditing only ever
  /// throws on corruption; it never changes a report.
  int audit_every = 0;
  /// Latency & accountability lens (lens/trace.hpp): when non-null, the
  /// engine streams publish/deliver/suppress/decision events into this
  /// trace. The trace is owned by the caller (typically a per-worker
  /// core::WorkerScratch) and must outlive the Execution; the engine calls
  /// begin_trial(n) on construction and reset. Null = every hook is one
  /// predictable pointer test — reports stay bit-identical.
  lens::WindowTrace* lens = nullptr;
};

class Execution {
 public:
  /// Takes ownership of the per-processor protocol instances (index = id).
  /// Calls each process's on_start to stage initial messages.
  Execution(std::vector<std::unique_ptr<Process>> procs, std::uint64_t seed,
            ExecutionConfig cfg = {});

  /// Rebuild this execution in place for a new trial: fresh processes,
  /// fresh per-processor Rng streams forked from `seed`, empty buffer and
  /// zeroed counters — observationally identical to constructing
  /// Execution(procs, seed, cfg) from scratch, but KEEPING every grown
  /// capacity (message-buffer arena + id map, window scratch, outboxes,
  /// per-processor vectors). This is the campaign engine's per-worker
  /// reuse path: one Execution per worker persists across trials and
  /// across checks, so steady-state trials allocate almost nothing beyond
  /// the process objects themselves.
  void reset(std::vector<std::unique_ptr<Process>> procs, std::uint64_t seed,
             ExecutionConfig cfg = {});

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;
  Execution(Execution&&) = default;
  Execution& operator=(Execution&&) = default;

  [[nodiscard]] int n() const noexcept { return n_; }

  // ---- the three step kinds of §2 (+ crash for §5) ----

  /// Sending step: publish `p`'s staged messages into the buffer in one
  /// MessageBuffer::add_batch run. Returns the ids published, in staging
  /// order (empty when the step is a no-op); while a window batch is being
  /// collected (begin_window_batch) the step also folds the sender's
  /// receiver grouping into the window pair index. The span aliases a
  /// reusable internal buffer — it is invalidated by the next sending step,
  /// so copy it out if it must outlive one step.
  std::span<const MsgId> sending_step(ProcId p);

  /// Receiving step: deliver pending message `id` to its recipient and run
  /// the (randomized) local computation.
  void receiving_step(MsgId id);

  // ---- bulk publication (the window driver's batch pipeline) ----

  /// Arm window-batch collection for the CURRENT window: clears the
  /// scratch batch and pair index and stamps a fresh batch epoch, so the
  /// following sending steps build the (sender, receiver) pair index
  /// incrementally instead of the driver re-walking the buffer.
  /// Collection disarms automatically when the window counter advances.
  /// Preconditions (checked): nothing is pending — the previous window's
  /// end_window swept it — and each sender takes at most one non-empty
  /// sending step per collected window — exactly what Definition 1's
  /// sending phase does.
  void begin_window_batch();

  /// View of the batch collected since begin_window_batch (ids + pair
  /// index). Precondition: collection is armed for the current window.
  [[nodiscard]] WindowBatch window_batch() const;

  /// Deliver one receiver's whole window run given its plan row (the
  /// ordered sender list; repeated senders deliver nothing more). Uses the
  /// collected pair index (precondition: begin_window_batch this window).
  /// Every row, ascending or not, full or partial, retires in ONE walk of
  /// the receiver's pending list (MessageBuffer::deliver_window_run_to):
  /// the pair index sizes one output segment per row sender, in plan
  /// order, and the walk scatters each message into its sender's segment.
  /// A full cover of the receiver's window messages skips the membership
  /// test. The computation then runs ONCE over the run via
  /// Process::on_receive_batch — the crash check and the output write-once
  /// snapshot happen once per run, while each delivery still counts as one
  /// receiving step (step counter / event log / lens, in plan order). For
  /// protocols that honour the on_receive_batch contract this matches a
  /// receiving_step per id in every observable EXCEPT the Decision
  /// record's step/chain stamps, which carry end-of-run granularity (the
  /// decision's window and value are exact). Window-model consumers read
  /// windows, not steps — the async model, whose chain metric is
  /// load-bearing, delivers per id. Returns the number delivered.
  int deliver_plan_row(ProcId receiver, std::span<const ProcId> row);

  /// Resetting step: erase `p`'s memory per §2 (input/output/id/reset
  /// counter survive; everything else, including staged messages, is lost).
  void resetting_step(ProcId p);

  /// Crash (only used by the §5 crash-model driver): `p` halts forever.
  void crash(ProcId p);

  // ---- window bookkeeping ----

  /// Current acceptable-window index (starts at 0).
  [[nodiscard]] std::int64_t window() const noexcept { return window_; }

  /// Close the current window: drop every still-pending message (all of
  /// them were sent in it; silenced senders' messages are never delivered
  /// under the acceptable-window regime) and advance the window counter.
  /// The async driver never calls this — its messages stay eligible for
  /// eventual delivery.
  void end_window();

  // ---- full-information views ----

  [[nodiscard]] const Process& process(ProcId p) const;
  [[nodiscard]] const MessageBuffer& buffer() const noexcept { return buffer_; }
  [[nodiscard]] bool crashed(ProcId p) const;
  [[nodiscard]] int crashed_count() const noexcept { return crashed_count_; }
  [[nodiscard]] int reset_count(ProcId p) const;
  [[nodiscard]] std::int64_t total_resets() const noexcept {
    return total_resets_;
  }
  [[nodiscard]] std::int64_t step_count() const noexcept { return steps_; }
  [[nodiscard]] std::int64_t chain_depth(ProcId p) const;
  [[nodiscard]] bool has_staged(ProcId p) const;

  /// Monotone counter bumped by every crash and resetting step. The window
  /// driver re-validates a reused plan whenever this changed since the
  /// plan's last validation (the plan-reuse contract's defensive re-check).
  [[nodiscard]] std::int64_t liveness_epoch() const noexcept {
    return liveness_epoch_;
  }

  /// Output of processor p (kBot / 0 / 1).
  [[nodiscard]] int output(ProcId p) const;
  /// Number of processors with a written output bit.
  [[nodiscard]] int decided_count() const noexcept {
    return static_cast<int>(decisions_.size());
  }
  [[nodiscard]] const std::vector<Decision>& decisions() const noexcept {
    return decisions_;
  }
  /// First decision, if any.
  [[nodiscard]] std::optional<Decision> first_decision() const;
  /// True iff every written output agrees (vacuously true with no outputs).
  [[nodiscard]] bool outputs_agree() const;
  /// True iff every non-crashed processor has decided.
  [[nodiscard]] bool all_live_decided() const;

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

  /// Reusable workspace for the window driver (engine-internal: used by
  /// run_acceptable_window so a steady-state window allocates nothing).
  [[nodiscard]] WindowScratch& window_scratch() noexcept { return scratch_; }

  /// Opt-in invariant auditor: MessageBuffer::audit() plus the
  /// execution-level consistency pass — liveness bookkeeping
  /// (crashed/reset counters vs. their per-processor arrays, the
  /// liveness-epoch identity), write-once decision records (one per
  /// processor, value ∈ {0,1}, agreeing with the live output bit, sane
  /// window/step stamps), crashed processors hold no staged messages, and
  /// scratch epoch-stamp freshness (no stamp from the future). Throws
  /// std::logic_error on the first violation. Runs automatically at window
  /// boundaries when ExecutionConfig::audit is set.
  void audit() const;

 private:
  friend struct AuditTestAccess;
  void record(StepKind k, ProcId p, MsgId m = kNoMsg);
  /// Compact run_envs_ when some of the row's segments were left short by
  /// messages already delivered earlier in the window.
  void close_segment_gaps(std::span<const ProcId> row);
  void check_output_write_once(ProcId p, int before);
  /// Whether this window boundary audits (cfg_.audit every window, or the
  /// cfg_.audit_every sampling period divides the window index).
  [[nodiscard]] bool audit_due() const;

  int n_;
  ExecutionConfig cfg_;
  std::vector<std::unique_ptr<Process>> procs_;
  MessageBuffer buffer_;
  std::vector<Rng> rngs_;
  std::vector<Outbox> staged_;
  std::vector<bool> crashed_;
  std::vector<int> resets_;
  std::vector<std::int64_t> chain_;
  std::vector<Decision> decisions_;
  std::vector<Event> events_;
  std::vector<MsgId> published_;            ///< reused by sending_step
  /// Reused by deliver_plan_row: the run in plan order. Filled and
  /// consumed inside ONE run, never held across publication or a window
  /// sweep (buffer.hpp contract).
  // aa-lint: envelope-ok(transient deliver_plan_row scratch, cleared per run)
  std::vector<const Envelope*> run_envs_;
  WindowScratch scratch_;
  std::int64_t window_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t total_resets_ = 0;
  std::int64_t liveness_epoch_ = 0;
  int crashed_count_ = 0;
};

}  // namespace aa::sim
