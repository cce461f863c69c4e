// Acceptable windows — Definition 1 of the paper.
//
//   "First, all n processors take sending steps. Then, for sets
//    S_1,...,S_n ⊆ [n] all of size ≥ n−t, a sequence of receiving steps
//    follows that delivers to each processor i the messages just sent to it
//    from processors in the set S_i. Finally, a sequence of at most t
//    resetting steps occurs."
//
// The strongly adaptive adversary chooses the S_i sets AFTER seeing the
// just-sent messages (full information), and additionally controls the
// per-receiver delivery ORDER — order matters because the §3 algorithm acts
// on the first T1 matching-round messages it receives.
//
// Hot-path contract: run_acceptable_window drives everything through the
// execution's WindowScratch (reusable window store / plan), so a
// steady-state window performs no heap allocation. The paper only requires
// the adversary to be ABLE to adapt — it does not force every adversary to
// behave adaptively — so the planning API lets an adversary declare that
// its previous plan still stands:
//
//   * prepare(n, t) runs once per (execution, adversary) pairing, before
//     the first window, so static adversaries can set up their plan shape.
//   * the sending phase runs under Execution::begin_window_batch: each
//     sending step swaps its whole staged vector into its run of the
//     window store (plan.hpp). Every protocol here except the Byzantine
//     send() wrapper stages only broadcasts, and a broadcast is ONE item,
//     so a run of k broadcasts is k items and needs no index: its ids to
//     receiver r are the stride-n sequence first + r, first + r + n, ...
//     A point (send()) run instead writes its row of the window's
//     (sender, receiver) pair index with one stable counting sort by
//     receiver. WindowBatch::broadcast_runs exposes the run kind, so an
//     adversary can plan every receiver's identical broadcast sequence
//     once.
//   * plan_window_into receives that store as a WindowBatch view
//     (WindowBatch::envelope reads any window message by value) and
//     returns a PlanDecision. kUpdated means the plan was overwritten
//     (the driver re-validates it); kReusePrevious means the plan object
//     already holds exactly what the adversary wants, and the driver skips
//     both the n² plan fill and validate_window_plan — unless a
//     crash/reset changed liveness since the last validation, which forces
//     one defensive re-validation.
//   * deliveries run through Execution::deliver_plan_row: every plan row,
//     ascending or adversarially ordered, is gathered in one pass, in plan
//     order, from the senders' runs (broadcast items directly, point runs
//     through the pair index) and handed to a single
//     Process::on_receive_batch.
//   * end_window closes the window: every undelivered message is dropped
//     (published − delivered; the lens walks the runs for its
//     suppressions only when armed), so each window opens on an empty
//     store.
//
// Frozen executions. A processor stages messages only in on_start and in
// response to a delivery; a reset erases its staged messages and on_reset
// has no outbox, and a crash erases them too. So once no live processor
// has a staged message at a window's start (Execution::any_staged() is
// false), that window publishes nothing, delivers nothing and therefore
// stages nothing, and the same holds for every later window: the
// execution is frozen. Resets still run but leave outputs alone (the
// output bit survives a reset), so no output, decision record or lens
// event changes again, and every verdict a checker reads (agreement,
// validity, decided, windows_to_first) is final. Only all_live_decided()
// can still move, and only through a crash that removes the last
// undecided live processor. run_until_settled therefore stops a frozen
// run as soon as its adversary answers can_crash() == false: the verdict
// it returns is the one the full budget would have returned. The driver
// enforces the other half of that contract (an adversary that said it
// cannot crash requests no crash), and skips the delivery loop of a
// window that published nothing, where every deliver_plan_row would
// return 0 untouched.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sim/execution.hpp"
#include "sim/plan.hpp"
#include "sim/types.hpp"

namespace aa::sim {

/// Throws AA_REQUIRE-style errors unless `plan` is an acceptable window for
/// (n, t): n receivers, every S_i a duplicate-free subset of [0,n) with
/// |S_i| ≥ n − t, and ≤ t distinct resets.
void validate_window_plan(const WindowPlan& plan, int n, int t);

/// Allocation-free variant used by the window driver: duplicate detection
/// runs on `scratch`'s epoch-stamp array.
void validate_window_plan(const WindowPlan& plan, int n, int t,
                          WindowScratch& scratch);

/// The adversary's verdict on the plan object it was handed.
enum class PlanDecision {
  kReusePrevious,  ///< plan already holds this window's choice — unchanged
  kUpdated,        ///< plan was overwritten and must be (re-)validated
};

/// A strongly adaptive (window) adversary: full information, chooses the
/// delivery sets/order and resets for each window.
class WindowAdversary {
 public:
  virtual ~WindowAdversary() = default;

  /// Lifecycle hook, called by the driver once per (execution, adversary)
  /// pairing before the first window. Static adversaries precompute here
  /// and invalidate any plan cached against a previous execution; dynamic
  /// adversaries may ignore it. Default: no-op.
  virtual void prepare(int n, int t) {
    (void)n;
    (void)t;
  }

  /// Plan the window into `plan` and say whether it changed. The plan
  /// object is owned by the execution and handed over UNCLEARED — whatever
  /// this adversary last wrote into it is still there, enabling
  /// kReusePrevious without any fill. Implementations that return kUpdated
  /// must fully overwrite the plan (call plan.reset(exec.n()) first, then
  /// append to plan.delivery_order[i] / plan.resets). `batch` is the
  /// window's publication batch — batch.ids() is the range of every id
  /// just published, batch.from_to(s,r) yields a pair's ids (a stride-n
  /// sequence for a broadcast run), and batch.envelope(id) reads a
  /// message.
  /// Implementations may also inspect the whole execution (process states)
  /// — the model is full-information.
  virtual PlanDecision plan_window_into(const Execution& exec,
                                        const WindowBatch& batch,
                                        WindowPlan& plan) = 0;

  /// Processors to crash after this window's resets (chaos/fault layer;
  /// Definition 1 has no crashes, so the default is none). Read by
  /// run_acceptable_window AFTER plan_window_into, before end_window; the
  /// view must stay valid until then. Crashing an already-crashed
  /// processor is a no-op.
  [[nodiscard]] virtual std::span<const ProcId> window_crashes() const {
    return {};
  }

  /// Whether this adversary may still request a crash through
  /// window_crashes() in some later window of this run. Default false:
  /// Definition 1 has no crashes. Crash-injecting adversaries answer true
  /// while they could still crash someone, and wrappers forward their
  /// inner adversary's answer. run_until_settled ends a frozen run only
  /// once this is false (see the file comment), and run_acceptable_window
  /// checks that a window planned after a false answer requests no crash.
  [[nodiscard]] virtual bool can_crash() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Base for adversaries whose plan depends only on (n, t) — never on the
/// batch or the execution state. Subclasses implement fill_static (and
/// optionally prepare_static); the base fills the driver's plan once and
/// answers kReusePrevious for every later window against the same plan
/// object, which is bit-identical to re-planning because the fill is a
/// pure function of n.
class StaticWindowAdversary : public WindowAdversary {
 public:
  void prepare(int n, int t) final {
    cached_plan_ = nullptr;
    cached_n_ = -1;
    prepare_static(n, t);
  }

  PlanDecision plan_window_into(const Execution& exec,
                                const WindowBatch& /*batch*/,
                                WindowPlan& plan) final {
    const int n = exec.n();
    if (cached_plan_ == &plan && cached_n_ == n) {
      return PlanDecision::kReusePrevious;
    }
    plan.reset(n);
    fill_static(n, plan);
    cached_plan_ = &plan;
    cached_n_ = n;
    return PlanDecision::kUpdated;
  }

 protected:
  /// Precompute anything the fill needs (masks, id lists). Default: no-op.
  virtual void prepare_static(int n, int t) {
    (void)n;
    (void)t;
  }
  /// Write the static plan into `plan` (handed over empty via reset(n)).
  virtual void fill_static(int n, WindowPlan& plan) = 0;

 private:
  const WindowPlan* cached_plan_ = nullptr;
  int cached_n_ = -1;
};

/// Drive one acceptable window: sending steps for all n processors, the
/// adversary's deliveries (validated against Definition 1 with budget t),
/// then the adversary's resets, then end_window() (undelivered messages from
/// this window are dropped — silenced senders are never heard).
/// Returns the number of receiving steps taken.
int run_acceptable_window(Execution& exec, WindowAdversary& adv, int t);

/// Convenience: run windows until some processor decides or `max_windows`
/// elapse. Returns the number of windows run.
std::int64_t run_until_first_decision(Execution& exec, WindowAdversary& adv,
                                      int t, std::int64_t max_windows);

/// Run windows until ALL (non-crashed) processors decide or `max_windows`
/// elapse. Returns the number of windows run.
std::int64_t run_until_all_decided(Execution& exec, WindowAdversary& adv,
                                   int t, std::int64_t max_windows);

/// Outcome of run_until_settled.
struct SettledRun {
  std::int64_t windows = 0;  ///< windows run
  bool frozen = false;  ///< stopped before the budget on a frozen execution
};

/// run_until_all_decided, but also stops at a window start where the
/// execution is frozen (no live processor has a staged message) and `adv`
/// can no longer crash anyone: every verdict is then final (file comment).
/// A frozen stop audits the execution once when auditing is armed
/// (ExecutionConfig::audit / audit_every), in place of the audits the
/// skipped windows would have run.
SettledRun run_until_settled(Execution& exec, WindowAdversary& adv, int t,
                             std::int64_t max_windows);

}  // namespace aa::sim
