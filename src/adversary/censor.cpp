#include "adversary/censor.hpp"

#include <algorithm>
#include <utility>
#include <variant>

#include "util/check.hpp"

namespace aa::adversary {

// ---- TargetedCensorAdversary -----------------------------------------------

TargetedCensorAdversary::TargetedCensorAdversary(
    std::unique_ptr<sim::WindowAdversary> inner, sim::ProcId target)
    : inner_(std::move(inner)), target_(target) {
  AA_REQUIRE(inner_ != nullptr,
             "TargetedCensorAdversary: null inner adversary");
  AA_REQUIRE(target_ >= 0, "TargetedCensorAdversary: negative target");
}

void TargetedCensorAdversary::prepare(int n, int t) {
  AA_REQUIRE(target_ < n, "TargetedCensorAdversary: target out of range");
  inner_->prepare(n, t);
  n_ = n;
  t_ = t;
  inner_plan_.reset(n);
}

sim::PlanDecision TargetedCensorAdversary::plan_window_into(
    const sim::Execution& exec, const sim::WindowBatch& batch,
    sim::WindowPlan& plan) {
  const int n = n_;

  // The inner adversary plans into OUR stable plan object so its
  // kReusePrevious cache (keyed on the plan pointer) stays coherent; the
  // censored copy below never feeds back into what it sees next window.
  inner_->plan_window_into(exec, batch, inner_plan_);
  plan.reset(n);
  for (int i = 0; i < n; ++i) {
    auto& row = plan.delivery_order[static_cast<std::size_t>(i)];
    row = inner_plan_.delivery_order[static_cast<std::size_t>(i)];
    // Maximal legal censorship: erase the target wherever Definition 1
    // leaves slack. Rows already at the |S_i| ≥ n − t floor must keep it —
    // that residual delivery is the model's own guarantee.
    if (static_cast<int>(row.size()) <= n - t_) continue;
    const auto it = std::find(row.begin(), row.end(), target_);
    if (it != row.end()) row.erase(it);
  }
  plan.resets = inner_plan_.resets;

  // Always kUpdated: the driver re-validates every censored plan, so a
  // contract violation would fault the run instead of skewing a report.
  return sim::PlanDecision::kUpdated;
}

// ---- StarvingAsyncScheduler ------------------------------------------------

StarvingAsyncScheduler::StarvingAsyncScheduler(
    std::unique_ptr<sim::AsyncAdversary> inner, sim::ProcId target,
    int fairness_bound)
    : inner_(std::move(inner)), target_(target), bound_(fairness_bound) {
  AA_REQUIRE(inner_ != nullptr, "StarvingAsyncScheduler: null inner scheduler");
  AA_REQUIRE(target_ >= 0, "StarvingAsyncScheduler: negative target");
  AA_REQUIRE(bound_ >= 0, "StarvingAsyncScheduler: negative fairness bound");
}

void StarvingAsyncScheduler::prepare(int n, int t) {
  AA_REQUIRE(target_ < n, "StarvingAsyncScheduler: target out of range");
  inner_->prepare(n, t);
  streak_ = 0;
}

sim::AsyncAction StarvingAsyncScheduler::next(const sim::Execution& exec) {
  sim::AsyncAction act = inner_->next(exec);
  const auto* del = std::get_if<sim::DeliverAction>(&act);
  if (del == nullptr) return act;  // crash / stop: pass through
  if (exec.buffer().get(del->id).sender != target_) {
    streak_ = 0;
    return act;
  }
  if (streak_ >= bound_) {
    // Fairness bound reached: the target delivery goes through, which also
    // resets the starvation streak.
    streak_ = 0;
    return act;
  }
  // Substitute the oldest pending non-target delivery to a live receiver:
  // the lowest over the receivers' first qualifying ids (each receiver list
  // ascends). The inner scheduler's pick stays pending and will be
  // re-offered; its incremental deliverable cache detects the out-of-band
  // delivery and filters it out (the documented DeliverableSet fallback),
  // so correctness is unaffected — only the target's latency.
  sim::MsgId oldest = sim::kNoMsg;
  for (sim::ProcId r = 0; r < exec.n(); ++r) {
    if (exec.crashed(r)) continue;
    for (const sim::Envelope& env : exec.buffer().pending_to(r)) {
      if (oldest != sim::kNoMsg && env.id > oldest) break;
      if (env.sender == target_) continue;
      oldest = env.id;
      break;
    }
  }
  if (oldest == sim::kNoMsg) {
    // Nothing but target traffic left: let it through.
    streak_ = 0;
    return act;
  }
  ++streak_;
  return sim::DeliverAction{oldest};
}

}  // namespace aa::adversary
