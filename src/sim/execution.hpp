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
//
// One message store per model. The §5 async model publishes into the
// MessageBuffer arena and delivers one id at a time. The acceptable-window
// model publishes into the window store (plan.hpp): each sending step's
// staged vector becomes the sender's run (one item per broadcast), a
// receiver's plan row is gathered from the runs — straight from the
// broadcast items, or through the pair index for point runs — and the
// window edge counts the rest as dropped. The buffer issues the ids and keeps the
// lifecycle counters of both.
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
  /// (end_window) in the window model, and after every delivery in the
  /// async model (run_async). Opt-in: O(slots) per audit, meant for chaos
  /// runs, CI sanitizer jobs and debugging.
  bool audit = false;
  /// Sampled auditing: audit at every Nth window boundary (those where
  /// window_index % N == 0), or after every Nth async delivery; 0 = off.
  /// Cheap enough to leave on in Release campaigns — the cost amortizes to
  /// O(slots)/N. `audit` overrides this to every boundary or delivery when
  /// both are set. Auditing only ever throws on corruption; it never
  /// changes a report.
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

  /// Sending step: publish `p`'s staged messages. In a collected window
  /// (begin_window_batch) the staged vector is swapped into `p`'s window
  /// run — no copy — and, for a point run only, one stable counting sort
  /// by receiver writes its row of the window pair index; otherwise (the
  /// async model) the run goes into the MessageBuffer arena in one
  /// add_batch, broadcasts expanded first (Outbox::expand). Either way
  /// the step claims consecutive ids, so it returns them as the range
  /// [first, first + published): in staging order, a broadcast's n copies
  /// in receiver order; empty when the step is a no-op (crashed sender or
  /// nothing staged). The range is a value and aliases nothing.
  MsgIdRange sending_step(ProcId p);

  /// Receiving step: deliver pending message `id` (an arena message, or a
  /// message of the current collected window) to its recipient and run the
  /// (randomized) local computation.
  void receiving_step(MsgId id);

  // ---- the window store (the window driver's batch pipeline) ----

  /// Arm window-batch collection for the CURRENT window: clears the window
  /// store and pair index and stamps a fresh batch epoch, so the following
  /// sending steps publish into per-sender runs (point runs also fill
  /// their rows of the (sender, receiver) pair index). Collection disarms at end_window.
  /// Preconditions (checked): nothing is pending — the previous window's
  /// end_window settled it — and each sender takes at most one non-empty
  /// sending step per collected window — exactly what Definition 1's
  /// sending phase does.
  void begin_window_batch();

  /// View of the window collected since begin_window_batch (ids, runs and
  /// pair index). Precondition: collection is armed for the current window.
  [[nodiscard]] WindowBatch window_batch() const;

  /// Deliver one receiver's whole window run given its plan row (the
  /// ordered sender list; repeated senders deliver nothing more).
  /// Precondition: begin_window_batch this window. The run is gathered in
  /// one pass, in plan order, from the senders' runs — for each row
  /// sender, its messages to this receiver in send order, minus those
  /// already delivered this window, built straight from a broadcast run's
  /// items or read through a point run's pair-index segment — into one
  /// reusable envelope scratch, and the computation runs ONCE over it via
  /// Process::on_receive_batch: the crash check and the output write-once
  /// snapshot happen once per run, while each delivery still counts as one
  /// receiving step (step counter / event log / lens, in plan order; with
  /// neither an event log nor a lens armed the counter moves by the run
  /// length at once). For protocols that honour
  /// the on_receive_batch contract this matches a receiving_step per id in
  /// every observable EXCEPT the Decision record's step/chain stamps,
  /// which carry end-of-run granularity (the decision's window and value
  /// are exact). Window-model consumers read windows, not steps — the
  /// async model, whose chain metric is load-bearing, delivers per id.
  /// Returns the number delivered.
  int deliver_plan_row(ProcId receiver, std::span<const ProcId> row);

  /// Resetting step: erase `p`'s memory per §2 (input/output/id/reset
  /// counter survive; everything else, including staged messages, is lost).
  void resetting_step(ProcId p);

  /// Crash (only used by the §5 crash-model driver): `p` halts forever.
  void crash(ProcId p);

  // ---- window bookkeeping ----

  /// Current acceptable-window index (starts at 0).
  [[nodiscard]] std::int64_t window() const noexcept { return window_; }

  /// Close the current window: every window message not delivered is
  /// dropped (silenced senders' messages are never delivered under the
  /// acceptable-window regime; the lens hears each one as a suppression),
  /// and the window counter advances. Messages published outside a
  /// collected window are the async model's, which has no window edges:
  /// closing a window while any is pending throws std::logic_error.
  void end_window();

  // ---- full-information views ----

  [[nodiscard]] const Process& process(ProcId p) const;
  /// The async model's arena, and the id space and lifecycle counters of
  /// both stores (total_sent / pending / delivered / dropped).
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
  /// True iff some processor has staged messages (a crashed one never
  /// does). False at a window's start means the execution is frozen: see
  /// sim/window.hpp.
  [[nodiscard]] bool any_staged() const;

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
  /// execution-level consistency pass — the window store (runs tile the
  /// window's ids, delivered flags match their count and the buffer's
  /// claimed ids), liveness bookkeeping
  /// (crashed/reset counters vs. their per-processor arrays, the
  /// liveness-epoch identity), write-once decision records (one per
  /// processor, value ∈ {0,1}, agreeing with the live output bit, sane
  /// window/step stamps), crashed processors hold no staged messages, and
  /// scratch epoch-stamp freshness (no stamp from the future). Throws
  /// std::logic_error on the first violation. Runs automatically under
  /// ExecutionConfig::audit / audit_every (see audit_if_due).
  void audit() const;

  /// Run audit() when audit tick `tick` is due: every tick under
  /// ExecutionConfig::audit, else every tick that ExecutionConfig::
  /// audit_every divides. The window driver ticks once per window
  /// boundary (end_window passes the window index), the async driver once
  /// per delivery (run_async passes the delivery count).
  void audit_if_due(std::int64_t tick) const;

  /// Whether auditing is armed (ExecutionConfig::audit or audit_every).
  [[nodiscard]] bool auditing() const noexcept {
    return cfg_.audit || cfg_.audit_every > 0;
  }

 private:
  friend struct AuditTestAccess;
  void record(StepKind k, ProcId p, MsgId m = kNoMsg);
  /// The collected-window half of sending_step: publish `out` as p's run.
  MsgIdRange publish_run(ProcId p, Outbox& out);
  void audit_window_store() const;
  void check_output_write_once(ProcId p, int before);

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
  /// deliver_plan_row's run scratch: the gathered envelopes in plan order,
  /// and one pointer per entry (the span on_receive_batch takes). Both
  /// only grow, and the pointers are rebuilt whenever run_envelopes_ does.
  std::vector<Envelope> run_envelopes_;
  // aa-lint: envelope-ok(points into run_envelopes_, rebuilt when it grows)
  std::vector<const Envelope*> run_ptrs_;
  WindowScratch scratch_;
  std::int64_t window_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t total_resets_ = 0;
  std::int64_t liveness_epoch_ = 0;
  int crashed_count_ = 0;
};

}  // namespace aa::sim
