// WindowPlan — the adversary's choice for one acceptable window — plus the
// window store: WindowScratch (the reusable workspace that makes a
// steady-state window allocation-free, owned by Execution) and WindowBatch
// (the read-only view of one collected window that the adversary and the
// delivery phase consume).
//
// Window store: the acceptable-window model keeps its messages out of the
// MessageBuffer arena. A collected sending step swaps the sender's staged
// vector into the sender's run (no copy: the 20-byte StagedMessage items
// the protocol wrote ARE the store) and claims a contiguous id range from
// the buffer. A run is one of two kinds (Outbox::broadcast_runs):
//   * broadcast run — k items {kEveryone, m}, one per broadcast: 20 bytes
//     per BROADCAST. Copy j to receiver r has id first + j·n + r, so the
//     run needs no index: (s, r)'s ids are a stride-n sequence and an id's
//     receiver and item are its offset mod n and div n.
//   * point run — one item per message (only the Byzantine wrapper and
//     tests stage send()): grouped by receiver with one stable counting
//     sort straight into its row of the (sender, receiver) pair index,
//     which the first point run of an execution allocates.
// Delivery gathers a receiver's envelopes from the runs — straight from
// the broadcast items, or through the pair index — and the window edge
// counts what was never delivered as dropped. The window's ids are the
// range [base, base + published), ascending in publication order, so
// every pair's ids ascend too and no id list is ever stored; callers must
// not keep ids or envelopes across a window edge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
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

/// A sequence of message ids: either a segment of stored ids (a point
/// run's pair_ids) or the arithmetic sequence first, first + stride, ...
/// A window's ids and a sending step's ids are stride 1; the ids one
/// broadcast run sent one receiver are stride n. A small value type; its
/// iterators carry everything they read, so they stay valid after the
/// range object itself is gone.
class MsgIdRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MsgId;
    using difference_type = std::ptrdiff_t;
    using pointer = const MsgId*;
    using reference = MsgId;

    iterator() = default;
    iterator(const MsgId* ids, MsgId first, MsgId stride, std::size_t i)
        : ids_(ids), first_(first), stride_(stride), i_(i) {}
    MsgId operator*() const {
      return ids_ != nullptr ? ids_[i_]
                             : first_ + static_cast<MsgId>(i_) * stride_;
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const MsgId* ids_ = nullptr;
    MsgId first_ = 0;
    MsgId stride_ = 0;
    std::size_t i_ = 0;
  };

  MsgIdRange() = default;
  [[nodiscard]] static MsgIdRange stored(const MsgId* ids, std::size_t size) {
    return MsgIdRange(ids, 0, 0, size);
  }
  [[nodiscard]] static MsgIdRange strided(MsgId first, MsgId stride,
                                          std::size_t size) {
    return MsgIdRange(nullptr, first, stride, size);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] MsgId operator[](std::size_t i) const {
    return ids_ != nullptr ? ids_[i] : first_ + static_cast<MsgId>(i) * stride_;
  }
  [[nodiscard]] MsgId front() const { return (*this)[0]; }
  [[nodiscard]] iterator begin() const {
    return iterator(ids_, first_, stride_, 0);
  }
  [[nodiscard]] iterator end() const {
    return iterator(ids_, first_, stride_, size_);
  }

 private:
  MsgIdRange(const MsgId* ids, MsgId first, MsgId stride, std::size_t size)
      : ids_(ids), first_(first), stride_(stride), size_(size) {}

  const MsgId* ids_ = nullptr;
  MsgId first_ = 0;
  MsgId stride_ = 0;
  std::size_t size_ = 0;
};

/// One sender's published run in a collected window. `items` is the
/// sender's staging vector itself, swapped in by the sending step. In a
/// point run item j has id first + j; in a broadcast run (every item
/// kEveryone) item j's copy to receiver r has id first + j·n + r. Every
/// message of the run shares its sender, window and chain stamp. The
/// record is this window's iff `stamp` == batch_epoch (a stale one means
/// "published nothing", so nothing is ever reset); `broadcast_runs` is
/// Outbox::broadcast_runs(): k ≥ 1 for k broadcast items, -1 for a point
/// run.
struct SenderRun {
  std::vector<StagedMessage> items;
  MsgId first = 0;
  std::int64_t chain = 0;
  std::uint64_t stamp = 0;
  std::int32_t broadcast_runs = 0;
};

/// Per-execution scratch for the window driver. Every buffer is reused
/// window to window, so after warm-up a window performs no heap allocation.
///
/// Window store + pair index (filled by Execution::sending_step while a
/// window batch is being collected — see begin_window_batch):
///   batch        — the ids published by this window's sending steps, the
///                  range [base, base + published) in publication order
///                  (one id per message, broadcast copies included)
///   base         — the first id of the window
///   runs         — per-sender runs (this window's iff stamp == batch_epoch)
///   run_order    — the senders that published, in publication order (so
///                  their runs' id ranges ascend)
///   delivered    — one byte per window message (index id − base): set
///                  once the message was delivered
///   window_delivered — number of set delivered bytes
///   pair_begin   — n rows of n+1 absolute offsets into pair_ids; row s
///                  (entries s·(n+1) .. s·(n+1)+n) maps receiver r to the
///                  segment of sender s's window ids addressed to r.
///                  Written only for POINT runs (broadcast_runs == -1), by
///                  publish_run's stable counting sort by receiver, and
///                  sized by the first one: an execution that only
///                  broadcasts never allocates it. A broadcast run's row
///                  is left stale and never read
///   pair_ids     — the point runs' ids grouped (sender-major,
///                  receiver-minor, id ascending within a pair)
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
  MsgIdRange batch;
  MsgId base = 0;
  std::vector<SenderRun> runs;
  std::vector<ProcId> run_order;
  std::vector<std::uint8_t> delivered;
  std::size_t window_delivered = 0;
  std::vector<std::int32_t> pair_begin;
  std::vector<MsgId> pair_ids;
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
  /// All ids published this window, publication order: the range
  /// [base, base + size()).
  [[nodiscard]] MsgIdRange ids() const noexcept { return sc_->batch; }
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
    const SenderRun* run = published(s);
    if (run == nullptr) return 0;
    if (run->broadcast_runs > 0) return run->broadcast_runs;
    const std::size_t at = row_base(s) + static_cast<std::size_t>(r);
    return sc_->pair_begin[at + 1] - sc_->pair_begin[at];
  }

  /// The ids sender s published to receiver r this window (send order):
  /// a stride-n sequence for a broadcast run, a pair_ids segment for a
  /// point run.
  [[nodiscard]] MsgIdRange from_to(ProcId s, ProcId r) const {
    const SenderRun* run = published(s);
    if (run == nullptr) return {};
    if (run->broadcast_runs > 0) {
      return MsgIdRange::strided(run->first + r, n_,
                                 static_cast<std::size_t>(run->broadcast_runs));
    }
    const std::size_t at = row_base(s) + static_cast<std::size_t>(r);
    const auto b = static_cast<std::size_t>(sc_->pair_begin[at]);
    const auto e = static_cast<std::size_t>(sc_->pair_begin[at + 1]);
    return MsgIdRange::stored(sc_->pair_ids.data() + b, e - b);
  }

  /// Total messages published to receiver r this window (all senders).
  [[nodiscard]] std::int32_t count_to(ProcId r) const {
    std::int32_t total = 0;
    for (ProcId s = 0; s < n_; ++s) total += count(s, r);
    return total;
  }

  /// Kind of sender s's run this window: k ≥ 1 when it published exactly
  /// k whole broadcast() runs (then from_to(s, r)[j] is broadcast j's copy
  /// to r, for every r), 0 when it published nothing, -1 when the run was
  /// staged with send().
  [[nodiscard]] int broadcast_runs(ProcId s) const {
    const SenderRun* run = published(s);
    return run == nullptr ? 0 : run->broadcast_runs;
  }

 private:
  /// Sender s's run if it published this window, else null.
  [[nodiscard]] const SenderRun* published(ProcId s) const {
    const SenderRun& run = sc_->runs[static_cast<std::size_t>(s)];
    return run.stamp == sc_->batch_epoch ? &run : nullptr;
  }
  [[nodiscard]] std::size_t row_base(ProcId s) const noexcept {
    return static_cast<std::size_t>(s) * (static_cast<std::size_t>(n_) + 1);
  }

  const WindowScratch* sc_;
  int n_;
};

}  // namespace aa::sim
