#include "sim/window.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aa::sim {

Envelope WindowBatch::envelope(MsgId id) const {
  AA_REQUIRE(id >= sc_->base &&
                 id < sc_->base + static_cast<MsgId>(sc_->batch.size()),
             "WindowBatch::envelope: id outside this window");
  // Runs ascend in publication order: the last one starting at or before
  // `id` holds it.
  const auto& order = sc_->run_order;
  const auto it = std::upper_bound(
      order.begin(), order.end(), id, [this](MsgId v, ProcId s) {
        return v < sc_->runs[static_cast<std::size_t>(s)].first;
      });
  const ProcId s = *(it - 1);
  const SenderRun& run = sc_->runs[static_cast<std::size_t>(s)];
  const auto off = static_cast<std::size_t>(id - run.first);
  if (run.broadcast_runs > 0) {
    // Broadcast run: copy off % n of item off / n.
    const auto n = static_cast<std::size_t>(n_);
    return Envelope{id, s, static_cast<ProcId>(off % n), run.items[off / n].msg,
                    sc_->collect_window, run.chain};
  }
  const StagedMessage& item = run.items[off];
  return Envelope{id, s, item.to, item.msg, sc_->collect_window, run.chain};
}

void validate_window_plan(const WindowPlan& plan, int n, int t,
                          WindowScratch& scratch) {
  AA_REQUIRE(static_cast<int>(plan.delivery_order.size()) == n,
             "window plan must provide a delivery order for every receiver");
  if (scratch.stamp.size() < static_cast<std::size_t>(n)) {
    scratch.stamp.assign(static_cast<std::size_t>(n), 0);
  }
  for (int i = 0; i < n; ++i) {
    const auto& order = plan.delivery_order[static_cast<std::size_t>(i)];
    const std::uint64_t epoch = ++scratch.epoch;
    int distinct = 0;
    for (ProcId s : order) {
      AA_REQUIRE(s >= 0 && s < n, "window plan: sender id out of range");
      AA_REQUIRE(scratch.stamp[static_cast<std::size_t>(s)] != epoch,
                 "window plan: duplicate sender in delivery order");
      scratch.stamp[static_cast<std::size_t>(s)] = epoch;
      ++distinct;
    }
    AA_REQUIRE(distinct >= n - t,
               "window plan: |S_i| must be >= n - t (Definition 1)");
  }
  const std::uint64_t epoch = ++scratch.epoch;
  int resets = 0;
  for (ProcId p : plan.resets) {
    AA_REQUIRE(p >= 0 && p < n, "window plan: reset id out of range");
    AA_REQUIRE(scratch.stamp[static_cast<std::size_t>(p)] != epoch,
               "window plan: duplicate reset target");
    scratch.stamp[static_cast<std::size_t>(p)] = epoch;
    ++resets;
  }
  AA_REQUIRE(resets <= t,
             "window plan: at most t resets per window (Definition 1)");
}

void validate_window_plan(const WindowPlan& plan, int n, int t) {
  WindowScratch scratch;
  validate_window_plan(plan, n, t, scratch);
}

int run_acceptable_window(Execution& exec, WindowAdversary& adv, int t) {
  const int n = exec.n();
  WindowScratch& sc = exec.window_scratch();

  // Once per (execution, adversary, t) pairing: lifecycle hook + a clean
  // plan. Swapping adversaries mid-execution re-prepares and invalidates
  // the cached plan, so a kReusePrevious from the new adversary can never
  // alias the old one's content; a changed t likewise re-prepares, because
  // the validation a reused plan skips was performed against the old t.
  if (sc.planner != static_cast<const void*>(&adv) || sc.planner_t != t) {
    adv.prepare(n, t);
    sc.planner = static_cast<const void*>(&adv);
    sc.planner_t = t;
    sc.plan.reset(n);
    sc.plan_validated = false;
  }

  // Phase 1: all n processors take sending steps under window-batch
  // collection — each step swaps its staged vector into its run of the
  // window store (a broadcast run, one item per broadcast, needs no index;
  // a point run counting-sorts its ids by receiver into its row of the
  // (sender, receiver) pair index), so the store is ready the moment the
  // last step returns (no extra walks, no per-window counter reset).
  exec.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) exec.sending_step(p);

  // Phase 2: adversary inspects the batch (full information) and plans.
  // Validation runs once per updated plan; a reused plan skips it unless a
  // crash/reset changed liveness since the last validation (defensive
  // re-check mandated by the plan-reuse contract).
  const PlanDecision decision =
      adv.plan_window_into(exec, exec.window_batch(), sc.plan);
  if (decision == PlanDecision::kUpdated || !sc.plan_validated ||
      sc.plan_liveness_epoch != exec.liveness_epoch()) {
    validate_window_plan(sc.plan, n, t, sc);
    sc.plan_validated = true;
    sc.plan_liveness_epoch = exec.liveness_epoch();
  }

  // Batched delivery: each live receiver's whole run in one call, gathered
  // in plan order from the senders' runs.
  int deliveries = 0;
  for (ProcId i = 0; i < n; ++i) {
    if (exec.crashed(i)) continue;
    deliveries += exec.deliver_plan_row(
        i, sc.plan.delivery_order[static_cast<std::size_t>(i)]);
  }

  // Phase 3: at most t resetting steps. A reset of a crashed processor is
  // a no-op (crashed processors take no further steps), so plans written
  // before a chaos crash landed stay runnable.
  for (ProcId p : sc.plan.resets) {
    if (!exec.crashed(p)) exec.resetting_step(p);
  }

  // Chaos hook: the adversary (normally a ChaosWindowAdversary wrapper) may
  // request crashes at the window boundary; crash() is idempotent.
  for (const ProcId p : adv.window_crashes()) exec.crash(p);

  // Window boundary: undelivered window messages are dropped.
  exec.end_window();
  return deliveries;
}

std::int64_t run_until_first_decision(Execution& exec, WindowAdversary& adv,
                                      int t, std::int64_t max_windows) {
  std::int64_t w = 0;
  while (w < max_windows && exec.decided_count() == 0) {
    run_acceptable_window(exec, adv, t);
    ++w;
  }
  return w;
}

std::int64_t run_until_all_decided(Execution& exec, WindowAdversary& adv,
                                   int t, std::int64_t max_windows) {
  std::int64_t w = 0;
  while (w < max_windows && !exec.all_live_decided()) {
    run_acceptable_window(exec, adv, t);
    ++w;
  }
  return w;
}

}  // namespace aa::sim
