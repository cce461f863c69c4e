// WindowPlan — the adversary's choice for one acceptable window — plus the
// window store: WindowScratch (the reusable workspace that makes a
// steady-state window allocation-free, owned by Execution) and WindowBatch
// (the read-only view of one collected window that the adversary and the
// delivery phase consume).
//
// Window store: the acceptable-window model keeps its messages out of the
// MessageBuffer arena. A collected sending step swaps the sender's staged
// vector into the sender's run (no copy: the 20-byte StagedMessage items
// the protocol wrote ARE the store), claims a contiguous id range from the
// buffer, and groups the run by receiver with one stable counting sort
// straight into its row of the (sender, receiver) pair index. Delivery
// gathers a receiver's envelopes from the runs through that index, and the
// window edge counts what was never delivered as dropped. The window's ids
// are contiguous and ascending in publication order (the batch starts at
// `base`), so every pair_ids segment is ascending too; callers must not
// keep ids or envelopes across a window edge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace aa::sim {

/// The adversary's choice for one acceptable window.
/// `delivery_order[i]` is the ordered list of sender identities whose
/// just-sent messages are delivered to receiver i — its underlying SET must
/// have size ≥ n − t (Definition 1). Senders in the list that sent nothing
/// to i this window are permitted (delivering nothing is a no-op).
/// `resets` lists ≤ t distinct processors to reset at the window's end.
///
/// Plan-reuse contract: the driver hands the SAME plan object to the
/// adversary window after window without clearing it, so an adversary whose
/// plan is static can fill it once and answer kReusePrevious afterwards.
/// An adversary that answers kUpdated must fully overwrite the plan
/// (typically by calling reset(n) first) — stale rows and resets from the
/// previous window are otherwise still in it.
struct WindowPlan {
  std::vector<std::vector<ProcId>> delivery_order;
  std::vector<ProcId> resets;

  /// Empty the plan for reuse: n cleared delivery rows (capacity kept),
  /// no resets.
  void reset(int n) {
    delivery_order.resize(static_cast<std::size_t>(n));
    for (auto& order : delivery_order) order.clear();
    resets.clear();
  }
};

/// One sender's published run in a collected window. `items` is the
/// sender's staging vector itself, swapped in by the sending step; item j
/// has id first + j. Every message of the run shares its sender, window
/// and chain stamp.
struct SenderRun {
  std::vector<StagedMessage> items;
  MsgId first = 0;
  std::int64_t chain = 0;
};

/// Per-execution scratch for the window driver. Every buffer is reused
/// window to window, so after warm-up a window performs no heap allocation.
///
/// Window store + fused pair index (filled by Execution::sending_step while
/// a window batch is being collected — see begin_window_batch):
///   batch        — ids published by this window's sending steps, in
///                  publication order (contiguous from `base`)
///   base         — the first id of the window
///   runs         — per-sender runs (valid iff row_stamp[s] == batch_epoch)
///   run_order    — the senders that published, in publication order (so
///                  their runs' id ranges ascend)
///   delivered    — one byte per window message (index id − base): set
///                  once the message was delivered
///   window_delivered — number of set delivered bytes
///   pair_begin   — n rows of n+1 absolute offsets into pair_ids; row s
///                  (entries s·(n+1) .. s·(n+1)+n) maps receiver r to the
///                  segment of sender s's window-batch ids addressed to r.
///                  publish_run writes row s and its pair_ids with one
///                  stable counting sort by receiver; it is the only index
///                  (count and count_to read it)
///   pair_ids     — the batch grouped (sender-major, receiver-minor, id
///                  ascending within a pair)
///   row_stamp    — pair_begin row s and runs[s] are valid iff
///                  row_stamp[s] == batch_epoch; stale rows mean "sender
///                  published nothing", so no counter array is ever reset
///   bcast_runs   — per-sender Outbox::broadcast_runs() of the published
///                  run (valid iff row_stamp[s] == batch_epoch): k ≥ 1
///                  whole broadcasts, or -1 for a run staged with send()
///   batch_epoch  — bumped by every begin_window_batch
///   collect_window — the window index being collected, or -1 when the
///                  execution is not in a collected window (async drivers
///                  never arm this, so their sending steps publish into
///                  the MessageBuffer arena instead)
///
/// Plan bookkeeping (driven by run_acceptable_window):
///   plan         — the adversary's reusable WindowPlan
///   stamp, epoch — epoch-stamped duplicate detector for plan validation
///   planner, planner_t   — the (adversary, t) pairing prepare() last ran
///                          for on this execution; the driver re-prepares
///                          when either changes (validation bounds depend
///                          on t, so a plan reused under a different t
///                          must not skip re-validation)
///   plan_validated       — the current plan contents passed validation
///   plan_liveness_epoch  — Execution::liveness_epoch() at that validation;
///                          any crash/reset since forces re-validation even
///                          on reuse windows
struct WindowScratch {
  std::vector<MsgId> batch;
  MsgId base = 0;
  std::vector<SenderRun> runs;
  std::vector<ProcId> run_order;
  std::vector<std::uint8_t> delivered;
  std::size_t window_delivered = 0;
  std::vector<std::int32_t> pair_begin;
  std::vector<MsgId> pair_ids;
  std::vector<std::uint64_t> row_stamp;
  std::vector<std::int32_t> bcast_runs;
  std::uint64_t batch_epoch = 0;
  std::int64_t collect_window = -1;
  WindowPlan plan;
  std::vector<std::uint64_t> stamp;
  std::uint64_t epoch = 0;
  const void* planner = nullptr;
  int planner_t = -1;
  bool plan_validated = false;
  std::int64_t plan_liveness_epoch = -1;
};

/// Read-only view of one collected window, indexed by (sender, receiver).
/// Built incrementally as sending steps publish — handed to
/// WindowAdversary::plan_window_into and consumed by the delivery phase.
/// Aliases the execution's WindowScratch: valid only until the window ends
/// (or the next begin_window_batch).
class WindowBatch {
 public:
  WindowBatch(const WindowScratch* sc, int n) : sc_(sc), n_(n) {}

  [[nodiscard]] int n() const noexcept { return n_; }
  /// All ids published this window, publication order.
  [[nodiscard]] std::span<const MsgId> ids() const noexcept {
    return sc_->batch;
  }
  [[nodiscard]] std::size_t size() const noexcept { return sc_->batch.size(); }

  /// The senders that published this window, in publication order (their
  /// id ranges ascend in this order).
  [[nodiscard]] std::span<const ProcId> senders() const noexcept {
    return sc_->run_order;
  }

  /// The envelope of window message `id`, by value (the window store keeps
  /// no envelopes). Throws std::invalid_argument for an id outside this
  /// window.
  [[nodiscard]] Envelope envelope(MsgId id) const;

  /// Number of messages sender s published to receiver r this window.
  [[nodiscard]] std::int32_t count(ProcId s, ProcId r) const {
    const std::size_t row = row_base(s);
    if (sc_->row_stamp[static_cast<std::size_t>(s)] != sc_->batch_epoch)
      return 0;
    return sc_->pair_begin[row + static_cast<std::size_t>(r) + 1] -
           sc_->pair_begin[row + static_cast<std::size_t>(r)];
  }

  /// The ids sender s published to receiver r this window (send order).
  [[nodiscard]] std::span<const MsgId> from_to(ProcId s, ProcId r) const {
    const std::size_t row = row_base(s);
    if (sc_->row_stamp[static_cast<std::size_t>(s)] != sc_->batch_epoch)
      return {};
    const auto b =
        static_cast<std::size_t>(sc_->pair_begin[row + static_cast<std::size_t>(r)]);
    const auto e = static_cast<std::size_t>(
        sc_->pair_begin[row + static_cast<std::size_t>(r) + 1]);
    return std::span<const MsgId>(sc_->pair_ids).subspan(b, e - b);
  }

  /// Total messages published to receiver r this window (all senders).
  [[nodiscard]] std::int32_t count_to(ProcId r) const {
    std::int32_t total = 0;
    for (ProcId s = 0; s < n_; ++s) total += count(s, r);
    return total;
  }

  /// Shape of sender s's run this window: k ≥ 1 when it published exactly
  /// k whole broadcast() runs (then from_to(s, r)[j] is broadcast j's copy
  /// to r, for every r), 0 when it published nothing, -1 when the run was
  /// staged with send().
  [[nodiscard]] int broadcast_runs(ProcId s) const {
    const auto i = static_cast<std::size_t>(s);
    return sc_->row_stamp[i] == sc_->batch_epoch ? sc_->bcast_runs[i] : 0;
  }

 private:
  [[nodiscard]] std::size_t row_base(ProcId s) const noexcept {
    return static_cast<std::size_t>(s) * (static_cast<std::size_t>(n_) + 1);
  }

  const WindowScratch* sc_;
  int n_;
};

}  // namespace aa::sim
