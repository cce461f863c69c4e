// Strongly adaptive (acceptable-window) adversaries — §2/§3 of the paper.
//
// All of these obey Definition 1 (|S_i| ≥ n − t, ≤ t resets per window) and
// exercise different slices of the adversary's power:
//
//   FairWindowAdversary       — deliver everything, reset nobody (benign).
//   SilencerWindowAdversary   — permanently silence a fixed t-set: the
//                               classical "t crashed processors" schedule.
//   RandomWindowAdversary     — random S_i sets, random delivery order,
//                               optional random resets (Monte-Carlo fuzzing
//                               of the measure-one properties).
//   ResetStormAdversary       — deliver everything but reset a fresh
//                               random t-set every window (maximal use of
//                               the resetting power).
//   SplitKeeperAdversary      — the §3-end exponential-time adversary:
//                               orders each receiver's deliveries so the
//                               first T1 votes it consumes are split as
//                               evenly as possible, keeping every processor
//                               below the T3/T2 thresholds and forcing
//                               fresh coin flips every round.
//
// Fair and Silencer have plans that depend only on n, so they derive from
// sim::StaticWindowAdversary: the plan is filled once (prepare + first
// window) and every later window answers PlanDecision::kReusePrevious,
// letting the driver skip the n² fill and re-validation. The other three
// are genuinely adaptive and refill the reusable WindowPlan every window
// (kUpdated), keeping their own scratch buffers so steady-state planning
// still performs no heap allocation.
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::adversary {

/// Deliver all messages (sender-id order), no resets. Static: plans once.
class FairWindowAdversary final : public sim::StaticWindowAdversary {
 public:
  [[nodiscard]] std::string name() const override { return "fair"; }

 protected:
  void fill_static(int n, sim::WindowPlan& plan) override;
};

/// Never deliver from the fixed set `silenced` (must have ≤ t elements);
/// no resets. Models t crashed/partitioned processors. Static: plans once.
class SilencerWindowAdversary final : public sim::StaticWindowAdversary {
 public:
  explicit SilencerWindowAdversary(std::vector<sim::ProcId> silenced);
  [[nodiscard]] std::string name() const override { return "silencer"; }

 protected:
  void prepare_static(int n, int t) override;
  void fill_static(int n, sim::WindowPlan& plan) override;

 private:
  std::vector<sim::ProcId> silenced_;
  std::vector<bool> is_silenced_;  ///< rebuilt whenever n changes
};

/// Per-window random S_i of size exactly n − t in random order; resets each
/// processor independently with probability `reset_prob` up to the budget t.
class RandomWindowAdversary final : public sim::WindowAdversary {
 public:
  RandomWindowAdversary(int t, double reset_prob, Rng rng);
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override;
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  int t_;
  double reset_prob_;
  Rng rng_;
};

/// Deliver everything, then reset a fresh uniformly random t-subset.
class ResetStormAdversary final : public sim::WindowAdversary {
 public:
  ResetStormAdversary(int t, Rng rng);
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override;
  [[nodiscard]] std::string name() const override { return "reset-storm"; }

 private:
  int t_;
  Rng rng_;
  std::vector<sim::ProcId> ids_;  ///< reusable shuffle buffer
};

/// Scratch buffers for balance_votes_into (contents irrelevant between
/// calls; capacity is reused). Bucketed replacement for the old
/// sort-by-(round, arrival) pass: votes are appended straight into
/// per-round (zeros, ones) queues as they stream in — arrival order is
/// preserved within each queue by construction, so no sort is ever needed.
/// `rounds` keeps the distinct rounds seen this call in ascending order
/// (protocol rounds per window are few, so the insertion scan is a handful
/// of compares); `buckets` is the pooled queue storage, reused in arrival
/// order across calls.
struct BalanceScratch {
  struct Bucket {
    std::vector<sim::ProcId> zeros;
    std::vector<sim::ProcId> ones;
  };
  std::vector<std::pair<int, std::uint32_t>> rounds;  ///< (round, bucket)
  std::vector<Bucket> buckets;
};

/// The §3 exponential-time adversary for threshold-voting protocols
/// (reset-agreement / forgetful): every receiver's deliveries are ordered
/// round-by-round with 0-votes and 1-votes strictly alternating, so the
/// first T1 votes a processor consumes contain ≤ ⌈T1/2⌉ of either value —
/// below T3 (> n/2), hence below T2 — and every processor re-randomizes its
/// estimate. Decisions only happen when the coin flips spontaneously
/// produce a strong majority: probability 2^{−Θ(n)} per round.
///
/// Needs no resets and delivers every message (S_i = [n]): only the ORDER
/// is adversarial. This makes it simultaneously a legal strongly adaptive
/// adversary and a legal crash-model adversary with zero crashes.
///
/// Planning cost: when the window is broadcast_shaped, every receiver's
/// window messages carry the same (sender, payload) sequence, so the plan
/// is one balanced row copied to all n receivers — exactly the rows the
/// per-receiver path would build. Otherwise (Byzantine send() runs,
/// senders published out of order) each receiver is planned from its own
/// window messages, read in id order.
class SplitKeeperAdversary final : public sim::WindowAdversary {
 public:
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override;
  [[nodiscard]] std::string name() const override { return "split-keeper"; }

  /// True iff one plan row serves every receiver: every sender's run is
  /// whole broadcasts (or empty) and the senders published in ascending
  /// id order.
  [[nodiscard]] static bool broadcast_shaped(const sim::WindowBatch& batch);

 private:
  /// Append env to votes_ (a 0/1 vote) or non_votes_ (anything else).
  void classify(const sim::Envelope& env);
  /// Write the balanced order of votes_, then non-vote senders, then every
  /// remaining sender, into `order`.
  void build_row(int n, std::vector<sim::ProcId>& order);

  // Reusable per-window scratch (cleared, never shrunk).
  std::vector<std::tuple<sim::ProcId, int, int>> votes_;
  std::vector<sim::ProcId> non_votes_;
  std::vector<std::uint64_t> present_;
  std::uint64_t epoch_ = 0;
  BalanceScratch balance_;
};

/// A/B wrapper that strips plan reuse from `inner`: its cache is
/// invalidated before every window, so every plan_window_into refills the
/// plan and returns kUpdated — the pre-reuse (replan + revalidate every
/// window) engine behaviour. The reference the plan-reuse equivalence
/// tests compare against; plans are bit-identical to the reusing inner
/// adversary's.
class ReplanEveryWindow final : public sim::WindowAdversary {
 public:
  explicit ReplanEveryWindow(std::unique_ptr<sim::WindowAdversary> inner);
  void prepare(int n, int t) override;
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override;
  [[nodiscard]] std::span<const sim::ProcId> window_crashes() const override {
    return inner_->window_crashes();
  }
  [[nodiscard]] std::string name() const override {
    return "replan-every-window(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<sim::WindowAdversary> inner_;
  int t_ = 0;
};

/// Helper shared with the async split-keeper: produce an ordering of the
/// given (sender, round, value) vote triples that alternates values within
/// each round, rounds ascending. Returns sender ids in delivery order.
[[nodiscard]] std::vector<sim::ProcId> balance_votes(
    const std::vector<std::tuple<sim::ProcId, int, int>>& votes);

/// Allocation-free variant: appends the balanced order to `out` using the
/// caller's scratch buffers.
void balance_votes_into(
    const std::vector<std::tuple<sim::ProcId, int, int>>& votes,
    BalanceScratch& scratch, std::vector<sim::ProcId>& out);

}  // namespace aa::adversary
