// WindowTrace — the per-trial capture arena of the latency & accountability
// lens (pod-style confirmation tracing, PAPERS.md: arXiv 2501.14931).
//
// The checkers answer one question — measure-one agreement — but the
// acceptable-window model of §2 is fundamentally about WHICH messages the
// adversary may delay or suppress and for how long. The lens records, per
// trial:
//
//   send      — every published message, tallied per sender, with a
//               within-batch equivocation scan (two staged messages with
//               the same (round, kind, aux) key but different bit values
//               is the Byzantine Equivocate signature — honest protocols
//               broadcast one value per key per batch);
//   delivery  — per-(sender, receiver) delivered counts and the FIRST
//               window/step at which each receiver heard each sender,
//               plus a per-sender histogram of delivery lag
//               (delivery window − send window);
//   suppression — per-(sender, receiver) counts of window messages
//               dropped undelivered when the window closed;
//   decision  — each processor's decision window/step; at that moment the
//               per-sender confirmation spans (decision − first-heard, in
//               windows and in steps) are folded into per-sender sums and
//               histograms.
//
// The arena is flat std::int64_t storage indexed by sender / (sender,
// receiver) pairs; begin_trial() re-stamps it with assign(), so after the
// first trial at a given n the lens allocates nothing. Execution invokes
// the hooks only when ExecutionConfig::lens is set — a null lens costs one
// pointer test per hook site and produces bit-identical reports.
//
// Window spans serve the acceptable-window model; step spans (the engine's
// deterministic step counter) serve the async/crash model, where run_async
// never advances the window index.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"
#include "util/check.hpp"

namespace aa::lens {

class WindowTrace {
 public:
  /// Histogram width for delivery-lag and confirmation-span histograms.
  /// Bucket b counts spans of exactly b windows; the last bucket absorbs
  /// everything >= kBuckets − 1.
  static constexpr int kBuckets = 16;

  /// Re-arm for a fresh trial of n processors. Allocation-free when n
  /// matches the previous trial.
  void begin_trial(int n);

  // ---- engine hooks (null-guarded at every call site) --------------------

  /// A sending step published `items` (staging order) in `window`.
  void on_publish(sim::ProcId sender,
                  std::span<const sim::StagedMessage> items,
                  std::int64_t window);

  /// A receiving step (or bulk delivery run) delivered `env` in
  /// `window` at engine step counter `step`.
  void on_deliver(const sim::Envelope& env, std::int64_t window,
                  std::int64_t step);

  /// A (sender → receiver) window message was dropped undelivered when
  /// the window closed (Execution::end_window).
  void on_suppress(sim::ProcId sender, sim::ProcId receiver);

  /// Processor `p` wrote its decision in `window` at step `step`.
  void on_decision(sim::ProcId p, std::int64_t window, std::int64_t step);

  // ---- views -------------------------------------------------------------

  [[nodiscard]] int n() const noexcept { return n_; }

  [[nodiscard]] std::int64_t sent(sim::ProcId s) const {
    return sent_[idx(s)];
  }
  /// Messages of sender s that conflicted with an earlier same-key message
  /// in the same staged batch (the equivocation signature).
  [[nodiscard]] std::int64_t equivocations(sim::ProcId s) const {
    return equivocations_[idx(s)];
  }
  [[nodiscard]] std::int64_t delivered(sim::ProcId s, sim::ProcId r) const {
    return delivered_[pair(s, r)];
  }
  [[nodiscard]] std::int64_t suppressed(sim::ProcId s, sim::ProcId r) const {
    return suppressed_[pair(s, r)];
  }
  [[nodiscard]] std::int64_t delivered_total(sim::ProcId s) const;
  [[nodiscard]] std::int64_t suppressed_total(sim::ProcId s) const;

  /// Window of r's first delivery from s, or −1 if r never heard s.
  [[nodiscard]] std::int64_t first_heard_window(sim::ProcId s,
                                                sim::ProcId r) const {
    return first_window_[pair(s, r)];
  }
  /// Step of r's first delivery from s, or −1.
  [[nodiscard]] std::int64_t first_heard_step(sim::ProcId s,
                                              sim::ProcId r) const {
    return first_step_[pair(s, r)];
  }
  /// Window in which p decided, or −1 if p has not decided.
  [[nodiscard]] std::int64_t decision_window(sim::ProcId p) const {
    return decision_window_[idx(p)];
  }
  /// Number of processors that decided this trial.
  [[nodiscard]] std::int64_t deciders() const noexcept { return deciders_; }

  /// (decider, sender) pairs where the decider had heard the sender by
  /// its decision step — the per-sender confirmation evidence.
  [[nodiscard]] std::int64_t confirm_count(sim::ProcId s) const {
    return confirm_count_[idx(s)];
  }
  [[nodiscard]] std::int64_t confirm_window_sum(sim::ProcId s) const {
    return confirm_window_sum_[idx(s)];
  }
  [[nodiscard]] std::int64_t confirm_step_sum(sim::ProcId s) const {
    return confirm_step_sum_[idx(s)];
  }
  /// Histogram of delivery lag (delivery window − send window) for s.
  [[nodiscard]] std::int64_t delivery_hist(sim::ProcId s, int bucket) const {
    return delivery_hist_[hidx(s, bucket)];
  }
  /// Histogram of confirmation spans (decision window − first-heard
  /// window) for s.
  [[nodiscard]] std::int64_t confirm_hist(sim::ProcId s, int bucket) const {
    return confirm_hist_[hidx(s, bucket)];
  }

 private:
  [[nodiscard]] std::size_t idx(sim::ProcId p) const {
    AA_CHECK(p >= 0 && p < n_, "WindowTrace: proc id out of range");
    return static_cast<std::size_t>(p);
  }
  [[nodiscard]] std::size_t pair(sim::ProcId s, sim::ProcId r) const {
    return idx(s) * static_cast<std::size_t>(n_) + idx(r);
  }
  [[nodiscard]] std::size_t hidx(sim::ProcId s, int bucket) const {
    AA_CHECK(bucket >= 0 && bucket < kBuckets,
             "WindowTrace: histogram bucket out of range");
    return idx(s) * static_cast<std::size_t>(kBuckets) +
           static_cast<std::size_t>(bucket);
  }
  static int bucket_of(std::int64_t span) {
    if (span < 0) span = 0;
    return span >= kBuckets ? kBuckets - 1 : static_cast<int>(span);
  }

  int n_ = 0;
  // Per-sender.
  std::vector<std::int64_t> sent_;
  std::vector<std::int64_t> equivocations_;
  std::vector<std::int64_t> confirm_count_;
  std::vector<std::int64_t> confirm_window_sum_;
  std::vector<std::int64_t> confirm_step_sum_;
  // Per-(sender, receiver), row-major sender-first.
  std::vector<std::int64_t> delivered_;
  std::vector<std::int64_t> suppressed_;
  std::vector<std::int64_t> first_window_;  // −1 = never heard
  std::vector<std::int64_t> first_step_;    // −1 = never heard
  // Per-processor.
  std::vector<std::int64_t> decision_window_;  // −1 = undecided
  // Per-sender histograms, kBuckets wide.
  std::vector<std::int64_t> delivery_hist_;
  std::vector<std::int64_t> confirm_hist_;
  std::int64_t deciders_ = 0;

  /// on_publish scratch: the bit values seen so far per (round, kind, aux)
  /// key of one run (bit v set = a v-valued message staged). A run holds
  /// only a few keys, so a linear scan beats any map; reused across calls.
  struct KeyBits {
    std::int32_t round;
    std::int32_t kind;
    std::int32_t aux;
    unsigned bits;
  };
  std::vector<KeyBits> run_keys_;
};

}  // namespace aa::lens
