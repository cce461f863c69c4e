// Asynchronous (fine-grained) adversaries for the §5 crash-failure model.
//
//   RandomAsyncScheduler   — uniformly random pending delivery; no crashes.
//                            Fair with probability one (every message is
//                            eventually delivered), so measure-one
//                            termination forces a.s. decision under it.
//   FixedCrashScheduler    — crashes a fixed set up front, then schedules
//                            uniformly among messages to live processors.
//   AsyncSplitKeeper       — the Theorem 17 adversary for forgetful, fully
//                            communicative protocols: per receiver, delivers
//                            current-round votes in a value-balanced order,
//                            keeping every processor's n − t consumed votes
//                            split below the adoption threshold and forcing
//                            coin flips round after round. Crash-free (its
//                            power is pure scheduling), hence trivially
//                            within any crash budget.
//
// The two random schedulers keep their deliverable set INCREMENTALLY (the
// async half of the bulk-publication redesign): instead of re-walking every
// pending message per action, they consume each receiving step's published
// batch through the buffer's monotone id watermark (ids in
// [ingested_upto, total_sent) are exactly the newly published runs) and
// retire their own last delivery — producing bit-for-bit the same
// deliverable list, in the same ascending-id order, as the full rescan.
// AsyncSplitKeeper's policy is stateful per (receiver, round); it scans
// the allocation-free pending ranges as before.
#pragma once

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/async.hpp"
#include "util/rng.hpp"

namespace aa::adversary {

namespace detail {

/// Incrementally maintained "pending messages addressed to live
/// processors" list, ascending id — shared by the two random schedulers.
class DeliverableSet {
 public:
  /// Forget everything (new run / new execution).
  void reset() {
    ids_.clear();
    ingested_upto_ = 0;
    last_taken_ = sim::kNoMsg;
    crash_count_seen_ = 0;
    retired_seen_ = 0;
  }

  /// Bring the list up to date with `exec`: drop the delivery this
  /// scheduler issued last call, purge crashed receivers when a crash
  /// happened since, and ingest every id published since the last call.
  /// If the buffer retired messages this scheduler did not deliver (an
  /// out-of-band driver), falls back to a full rescan — the result is the
  /// same list either way, the incremental path just never walks old
  /// pending state.
  void sync(const sim::Execution& exec);

  /// The scheduler's pick; records it so the next sync retires it.
  [[nodiscard]] sim::MsgId take(std::size_t index) {
    last_taken_ = ids_[index];
    return last_taken_;
  }

  [[nodiscard]] const std::vector<sim::MsgId>& ids() const noexcept {
    return ids_;
  }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }

 private:
  std::vector<sim::MsgId> ids_;
  sim::MsgId ingested_upto_ = 0;
  sim::MsgId last_taken_ = sim::kNoMsg;
  int crash_count_seen_ = 0;
  std::size_t retired_seen_ = 0;  ///< buffer delivered+dropped last sync
};

}  // namespace detail

class RandomAsyncScheduler final : public sim::AsyncAdversary {
 public:
  explicit RandomAsyncScheduler(Rng rng) : rng_(rng) {}
  void prepare(int n, int t) override;
  sim::AsyncAction next(const sim::Execution& exec) override;
  [[nodiscard]] std::string name() const override { return "random-async"; }

 private:
  Rng rng_;
  detail::DeliverableSet deliverable_;
};

class FixedCrashScheduler final : public sim::AsyncAdversary {
 public:
  /// Crashes every processor in `to_crash` (≤ t enforced by the driver)
  /// before any delivery, then behaves like RandomAsyncScheduler.
  FixedCrashScheduler(std::vector<sim::ProcId> to_crash, Rng rng)
      : to_crash_(std::move(to_crash)), rng_(rng) {}
  void prepare(int n, int t) override;
  sim::AsyncAction next(const sim::Execution& exec) override;
  [[nodiscard]] std::string name() const override { return "fixed-crash"; }

 private:
  std::vector<sim::ProcId> to_crash_;
  std::size_t crashed_so_far_ = 0;
  Rng rng_;
  detail::DeliverableSet deliverable_;
};

/// Theorem 17's scheduling adversary (see class comment above).
/// Stateful: tracks how many votes of each value it has delivered to each
/// (receiver, round) so it can alternate strictly — the same prefix-balance
/// the window-model SplitKeeperAdversary enforces. A delivery it returns is
/// assumed applied (run_async guarantees this).
///
/// Only kVoteKind payloads are balanced. Ben-Or and Bracha never send one,
/// so under them the keeper degenerates to "the lowest pending id of the
/// lowest-index live receiver" (receivers whose round() is kBot skipped),
/// after the same full pending-set scan every step.
class AsyncSplitKeeper final : public sim::AsyncAdversary {
 public:
  AsyncSplitKeeper() = default;
  void prepare(int n, int t) override;
  sim::AsyncAction next(const sim::Execution& exec) override;
  [[nodiscard]] std::string name() const override {
    return "async-split-keeper";
  }

 private:
  /// delivered[(receiver, round)] = {count of 0-votes, count of 1-votes}.
  std::map<std::pair<sim::ProcId, int>, std::array<int, 2>> delivered_;
  std::array<std::vector<sim::MsgId>, 2> byval_;  ///< reusable per receiver
  std::vector<sim::MsgId> fallback_;              ///< reusable per call
};

}  // namespace aa::adversary
