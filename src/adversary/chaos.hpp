// Chaos wrappers: compose a sim::FaultPlan with ANY existing adversary.
//
// ChaosWindowAdversary perturbs the inner adversary's window plans —
// degenerate windows, duplicated rows, per-sender censorship, reset top-ups
// — and requests boundary crashes through the WindowAdversary::
// window_crashes hook. Every perturbation stays inside Definition 1 (the
// driver still validates the final plan), so checker semantics remain
// defined under chaos. ChaosAsyncScheduler injects crash actions into an
// async schedule while honouring the model budget t.
//
// Both wrappers draw all randomness from an Rng derived from
// (trial seed, FaultPlan::chaos_seed), so a chaos trial replays
// bit-identically; with a disabled FaultPlan they are exact pass-throughs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/async.hpp"
#include "sim/fault.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::adversary {

/// Wraps a window adversary and perturbs its plans per the FaultPlan. The
/// inner adversary plans into a pristine private WindowPlan (so its
/// pointer-based reuse cache stays coherent); the driver's plan receives a
/// perturbed copy and the wrapper always answers kUpdated, forcing
/// re-validation of every chaotic plan.
class ChaosWindowAdversary final : public sim::WindowAdversary {
 public:
  /// `seed` is the trial seed (the factory argument); it is mixed with
  /// fault.chaos_seed to derive the chaos Rng stream.
  ChaosWindowAdversary(std::unique_ptr<sim::WindowAdversary> inner,
                       const sim::FaultPlan& fault, std::uint64_t seed);

  void prepare(int n, int t) override;
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override;
  [[nodiscard]] std::span<const sim::ProcId> window_crashes() const override {
    return crashes_;
  }
  /// True while the plan may still inject a crash: crash_prob > 0 and
  /// fewer than crash_budget crashes injected so far.
  [[nodiscard]] bool can_crash() const override {
    return fp_.crash_prob > 0.0 && crashes_injected_ < fp_.crash_budget;
  }
  [[nodiscard]] std::string name() const override {
    return "chaos(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<sim::WindowAdversary> inner_;
  sim::FaultPlan fp_;
  Rng rng_;
  std::uint64_t seed_;
  sim::WindowPlan inner_plan_;          ///< inner's stable plan object
  std::vector<sim::ProcId> crashes_;    ///< this window's crash requests
  std::vector<std::uint8_t> reset_mark_;  ///< top-up duplicate guard
  int n_ = 0;
  int t_ = 0;
  int crashes_injected_ = 0;
};

/// Wraps an async scheduler and injects CrashActions (probability
/// FaultPlan::crash_prob per action, up to min(crash_budget, the model
/// budget t)); all other actions pass through to the inner scheduler.
class ChaosAsyncScheduler final : public sim::AsyncAdversary {
 public:
  ChaosAsyncScheduler(std::unique_ptr<sim::AsyncAdversary> inner,
                      const sim::FaultPlan& fault, std::uint64_t seed);

  void prepare(int n, int t) override;
  sim::AsyncAction next(const sim::Execution& exec) override;
  [[nodiscard]] std::string name() const override {
    return "chaos(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<sim::AsyncAdversary> inner_;
  sim::FaultPlan fp_;
  Rng rng_;
  std::uint64_t seed_;
  int n_ = 0;
  int t_ = 0;
  int crashes_injected_ = 0;
};

/// The (trial seed, chaos seed) → chaos stream derivation both wrappers
/// use. Exposed so tests can reproduce a wrapper's draws.
[[nodiscard]] Rng chaos_rng(std::uint64_t seed, std::uint64_t chaos_seed);

}  // namespace aa::adversary
