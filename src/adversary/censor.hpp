// Censorship adversaries: target ONE sender while staying strictly inside
// the model contracts.
//
// TargetedCensorAdversary composes with ANY window adversary: wherever the
// inner plan's delivery rows have slack (|S_i| > n − t), the target sender
// is erased from the row. Definition 1 only requires |S_i| ≥ n − t, so the
// censored plan is still acceptable — the driver re-validates every window
// (the wrapper always answers kUpdated) and validate_window_plan holds by
// construction. This is maximal *legal* censorship of one sender: rows
// already at the n − t floor must keep the target, which is exactly the
// acceptable-window guarantee the paper's model grants each processor.
//
// StarvingAsyncScheduler is the async analogue: whenever the inner
// scheduler picks a delivery from the target, it substitutes the oldest
// pending non-target delivery instead — but only up to `fairness_bound`
// consecutive substitutions, so every message still gets delivered
// eventually (the async model's fairness obligation; run_async's
// termination behaviour is preserved).
//
// Both are deterministic given the inner adversary: they draw no
// randomness of their own, so the same trial seed replays bit-identically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/async.hpp"
#include "sim/window.hpp"

namespace aa::adversary {

/// Erases `target`'s entries from every delivery row with slack; forwards
/// reset choices and crash requests from the inner adversary unchanged.
class TargetedCensorAdversary final : public sim::WindowAdversary {
 public:
  TargetedCensorAdversary(std::unique_ptr<sim::WindowAdversary> inner,
                          sim::ProcId target);

  void prepare(int n, int t) override;
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override;
  [[nodiscard]] std::span<const sim::ProcId> window_crashes() const override {
    return inner_->window_crashes();
  }
  [[nodiscard]] bool can_crash() const override {
    return inner_->can_crash();
  }
  [[nodiscard]] std::string name() const override {
    return "censor[" + std::to_string(target_) + "](" + inner_->name() + ")";
  }
  [[nodiscard]] sim::ProcId target() const noexcept { return target_; }

 private:
  std::unique_ptr<sim::WindowAdversary> inner_;
  sim::ProcId target_;
  sim::WindowPlan inner_plan_;  ///< inner's stable plan object (reuse cache)
  int n_ = 0;
  int t_ = 0;
};

/// Starves `target` in the async model: a target delivery picked by the
/// inner scheduler is swapped for the oldest pending non-target delivery
/// to a live receiver, at most `fairness_bound` consecutive times before
/// one target delivery is let through. Crash/stop actions pass through.
class StarvingAsyncScheduler final : public sim::AsyncAdversary {
 public:
  StarvingAsyncScheduler(std::unique_ptr<sim::AsyncAdversary> inner,
                         sim::ProcId target, int fairness_bound);

  void prepare(int n, int t) override;
  sim::AsyncAction next(const sim::Execution& exec) override;
  [[nodiscard]] std::string name() const override {
    return "starve[" + std::to_string(target_) + "](" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<sim::AsyncAdversary> inner_;
  sim::ProcId target_;
  int bound_;
  int streak_ = 0;  ///< consecutive substitutions since the last pass-through
};

}  // namespace aa::adversary
