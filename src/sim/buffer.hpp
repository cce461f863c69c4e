// MessageBuffer: the in-flight message store of §2, backed by a recycling
// slot arena.
//
// The adversary has full information: it can inspect every pending envelope.
// A message is in exactly one of three states: pending, delivered, dropped.
// Delivery is an explicit engine event; the end-of-window sweep
// (drop_pending_in_window) is the only drop path. (Dropping models the
// acceptable-window semantics where messages from silenced senders are never
// delivered; the async crash model never drops.)
//
// Arena design (the O(live) rewrite, now SoA):
//   * MsgIds stay monotonically increasing — the adversary-visible identity
//     and all iteration orders are unchanged from the append-only store.
//   * Each live (pending) message occupies one reusable slot; delivered and
//     dropped messages release their slot immediately, so memory is
//     O(peak live messages), independent of execution length.
//   * Slot storage is struct-of-arrays: the intrusive list links (`links_`),
//     the 16-byte hot metadata the delivery walk filters on (`meta_`: id,
//     receiver, sender), and the full envelopes (`envs_`) live in three
//     lockstep arrays. The per-receiver delivery walk and the plan
//     validation scan touch one metadata cache line per four messages
//     instead of a full Envelope each.
//   * Ids resolve to slots in two tiers. Ids at or above `direct_base_`
//     — in the window regime, every id of the current window — resolve
//     through a dense direct-index array (one bounds-checked load, no
//     hashing). Older ids ("stragglers": async-regime messages that
//     outlive many window advances) live in an open-addressing table
//     (linear probing with backward-shift deletion). The window-edge sweep
//     retires the whole direct range in O(1) — see drop_pending_in_window —
//     so the acceptable-window hot path performs NO per-message hash
//     erases at all; the incremental erase path survives only for spilled
//     stragglers.
//   * Slots are threaded onto two intrusive doubly-linked lists — one per
//     receiver and one per send-window — kept in ascending-id (send) order.
//     pending_to / pending_from_to / pending_in_window / all_pending iterate
//     those lists in O(result), and drop_pending_in_window retires exactly
//     the window's own leftovers. Each window list additionally records its
//     member id range ([first_id, last_id], plus a contiguity flag), which
//     the bulk delivery run uses as a branch-free window test.
//
// Because slots recycle, envelope lookups are only valid for PENDING ids:
// querying a retired id throws (std::logic_error), and is_pending(id) is the
// only question that can be asked about the whole history.
//
// Envelope-view invalidation contract (batch API, SoA edition): references
// returned by get()/iteration and the views handed out by
// deliver_window_run_to point into the envelope array `envs_` and are
// invalidated by
//   (1) the next publication — a single add() OR any add_batch(), which may
//       grow the envelope array (SoA does not change this: all three arrays
//       grow together), and
//   (2) for delivered (parked) slots, the drop_pending_in_window sweep of
//       their send window, which recycles the slot; the parked id becomes
//       REUSABLE arena space at that sweep, not before.
// Range retirement does NOT add an invalidation point: rewinding the direct
// index (the O(1) window-edge id retirement, or an explicit
// spill_direct_index()) moves only id→slot bookkeeping and never touches
// envelope storage. Within one acceptable window the engine publishes first
// and delivers after, so views collected during the delivery phase stay
// valid until the window's end_window sweep; holders that outlive a
// publication (anything keeping a view across sending steps) must copy the
// envelope out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace aa::lens {
class WindowTrace;
}  // namespace aa::lens

namespace aa::sim {

namespace detail {

/// Open-addressing MsgId → slot-index map (linear probing, power-of-two
/// capacity, backward-shift deletion — no tombstones, so steady-state
/// insert/erase churn never degrades or reallocates). Holds only the
/// SPILLED tier of ids (below MessageBuffer's direct-index base); the
/// window-regime hot path never touches it.
class MsgIdMap {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  MsgIdMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] std::uint32_t find(MsgId key) const noexcept {
    if (cells_.empty()) return kAbsent;
    std::size_t i = home(key);
    while (cells_[i].key != kNoMsg) {
      if (cells_[i].key == key) return cells_[i].value;
      i = (i + 1) & mask_;
    }
    return kAbsent;
  }

  void insert(MsgId key, std::uint32_t value) {
    if ((size_ + 1) * 4 >= cells_.size() * 3) grow();
    insert_no_grow(key, value);
  }

  /// Empty the map, keeping its capacity (trial-reuse path).
  void clear() noexcept {
    for (Cell& c : cells_) c = Cell{};
    size_ = 0;
  }

  /// Grow once so that `extra` further insert_no_grow calls stay under the
  /// load factor — the bulk-insert half of spill_direct_index.
  void reserve_extra(std::size_t extra) {
    while ((size_ + extra + 1) * 4 >= cells_.size() * 3) grow();
  }

  /// Precondition: capacity ensured via reserve_extra (or insert's check).
  void insert_no_grow(MsgId key, std::uint32_t value) noexcept {
    std::size_t i = home(key);
    while (cells_[i].key != kNoMsg) i = (i + 1) & mask_;
    cells_[i] = Cell{key, value};
    ++size_;
  }

  /// Visit every (key, slot) entry, in table order. Audit-only: the table
  /// has no other iteration surface, and table order is not meaningful.
  template <typename F>
  void for_each(F&& f) const {
    for (const Cell& c : cells_) {
      if (c.key != kNoMsg) f(c.key, c.value);
    }
  }

  /// Precondition: key present. Outside MessageBuffer's own implementation
  /// this is never the right call — the window-edge range retirement is the
  /// sanctioned bulk-retire path (enforced by aa_lint's idmap-erase rule).
  void erase(MsgId key) noexcept {
    std::size_t i = home(key);
    while (cells_[i].key != key) i = (i + 1) & mask_;
    // Backward-shift deletion: close the probe chain over the vacated cell.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (cells_[j].key == kNoMsg) break;
      const std::size_t h = home(cells_[j].key);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i].key = kNoMsg;
    --size_;
  }

 private:
  struct Cell {
    MsgId key = kNoMsg;
    std::uint32_t value = 0;
  };

  // Fibonacci (multiplicative) hashing. Identity hashing looks ideal for
  // monotonically assigned keys, but it packs a window's live ids into ONE
  // contiguous probe run — and backward-shift deletion of ascending ids
  // then rescans the whole remaining run per erase, an O(live²) pathology
  // per window. Mixing the key keeps probe runs O(1) for every access
  // pattern, erase included.
  [[nodiscard]] std::size_t home(MsgId key) const noexcept {
    return static_cast<std::size_t>(
               (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
               shift_) &
           mask_;
  }

  void grow() {
    const std::size_t cap = cells_.empty() ? 64 : cells_.size() * 2;
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(cap, Cell{});
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c /= 2) --shift_;
    size_ = 0;
    for (const Cell& c : old) {
      if (c.key != kNoMsg) insert(c.key, c.value);
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace detail

/// Test-only backdoor used by the auditor self-test to plant corruptions
/// (defined in tests/sim/test_audit.cpp; never part of the library).
struct AuditTestAccess;

class MessageBuffer {
 public:
  explicit MessageBuffer(int n);

  /// Restore the freshly-constructed state for `n` processors while
  /// KEEPING every capacity the previous run grew (slot arena, id-map
  /// table, direct index, receiver lists, window ring) — the campaign
  /// trial-reuse path: after the first trial warms a worker's buffer up,
  /// later same-shape trials allocate nothing. Observable behaviour is
  /// identical to a fresh MessageBuffer(n): ids restart at 0 and every
  /// list is empty.
  void reset(int n);

  /// Add a new in-flight message; returns its id.
  MsgId add(ProcId sender, ProcId receiver, const Message& payload,
            std::int64_t window, std::int64_t chain);

  /// Bulk publication: add `sender`'s staged run in staging order, exactly
  /// as items.size() consecutive add() calls would — ids are consecutive
  /// starting at the returned value, receiver lists stay ascending-id, and
  /// every iteration order is unchanged. One pass allocates the slot run,
  /// splices the whole run onto the window list in a single attach, and
  /// extends the dense direct index (no hash inserts at all).
  /// Returns the first id of the run (== total_sent() before the call,
  /// also for an empty run).
  MsgId add_batch(ProcId sender, std::span<const StagedMessage> items,
                  std::int64_t window, std::int64_t chain);

  /// Envelope lookup. Valid for PENDING ids only (retired slots recycle).
  [[nodiscard]] const Envelope& get(MsgId id) const;

  /// True iff `id` is live. Retired (delivered/dropped) ids return false;
  /// ids never issued throw.
  [[nodiscard]] bool is_pending(MsgId id) const;

  /// Transition pending → delivered and recycle the slot. Precondition:
  /// pending (a retired id throws std::logic_error).
  void mark_delivered(MsgId id);

  /// Whole-list delivery run — the acceptable-window delivery path. Walks
  /// `receiver`'s pending list once, in list (id) order, and delivers
  /// every message sent in window `w` whose sender is selected: all of
  /// them when `sender_stamp` is null, else exactly those with
  /// sender_stamp[sender] == epoch. The window test is the window list's
  /// recorded id range when its ids are contiguous (one metadata compare,
  /// no envelope touch), the envelope's window field otherwise. Delivered
  /// slots are PARKED, not recycled: is_pending flips to false and the ids
  /// leave the live index without any hash work, but each slot stays on
  /// its window list until drop_pending_in_window(w) sweeps it onto the
  /// free list in one bulk walk — so the caller MUST eventually drop
  /// window w (run_acceptable_window's end_window does). Window iteration
  /// skips parked slots, so mid-window queries stay exact. Unselected
  /// messages stay pending, relinked in one pass. Each delivery's
  /// envelope view (valid until the next publication or the window sweep)
  /// is written to out[cursor[sender]++]: the caller lays out one segment
  /// per sender (cursor[s] = the segment's start), so a single walk
  /// emits the run in any per-sender order while each sender's messages
  /// keep their send order. Writing past `out` throws std::logic_error.
  /// Returns the number delivered.
  int deliver_window_run_to(ProcId receiver, std::int64_t w,
                            const std::uint64_t* sender_stamp,
                            std::uint64_t epoch,
                            std::span<const Envelope*> out,
                            std::int32_t* cursor);

  /// Drop every still-pending message sent during window `w` by walking
  /// only that window's own pending list. Returns the number dropped.
  /// Range retirement: when the sweep leaves NO pending message anywhere
  /// (the steady state of the acceptable-window regime, where every window
  /// ends empty), the whole direct index [direct_base_, next_id_) is
  /// retired in O(1) — direct_base_ jumps to next_id_ — replacing the
  /// per-id backward-shift hash erases the sweep used to pay for.
  std::size_t drop_pending_in_window(std::int64_t w);

  /// Migrate every live directly-indexed id into the straggler hash map and
  /// rewind the direct index to start at the current id watermark. Purely
  /// an id→slot bookkeeping move: no envelope storage is touched, no view
  /// is invalidated, and every query answers identically. Called by the
  /// engine when a window advances while messages stay pending (the async /
  /// keep-pending regimes, where no sweep will ever empty the window), and
  /// internally when the direct index outgrows its size bound.
  void spill_direct_index();

  /// Install (or clear, with nullptr) the accountability lens: every drop
  /// of a still-PENDING message by the end-of-window sweep reports
  /// (sender, receiver) to trace->on_suppress. Lazily-delivered slots
  /// recycled by the sweep are NOT suppressions. The trace outlives the
  /// buffer's run; Execution re-installs it on construction and reset.
  void set_trace(lens::WindowTrace* trace) noexcept { trace_ = trace; }

  // ---- allocation-free iteration (ascending-id order) --------------------
  //
  // Ranges yield `const Envelope&`. Iterators prefetch their successor, so
  // retiring the CURRENT element (mark_delivered) while iterating is safe;
  // retiring any other element or adding messages mid-iteration is not.

  class PendingIterator {
   public:
    PendingIterator(const MessageBuffer* buf, std::int32_t slot, ProcId sender)
        : buf_(buf), cur_(slot), sender_(sender) {
      skip_non_matching();
      prefetch();
    }
    const Envelope& operator*() const;
    PendingIterator& operator++() {
      cur_ = next_;
      prefetch();
      return *this;
    }
    bool operator!=(const PendingIterator& o) const { return cur_ != o.cur_; }
    bool operator==(const PendingIterator& o) const { return cur_ == o.cur_; }

   private:
    void skip_non_matching();
    void prefetch();

    const MessageBuffer* buf_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
    ProcId sender_;  ///< -1: no sender filter
  };

  class WindowIterator {
   public:
    WindowIterator(const MessageBuffer* buf, std::int32_t slot,
                   std::int64_t window, bool all_windows)
        : buf_(buf), cur_(slot), window_(window), all_windows_(all_windows) {
      skip_lazy();
      if (all_windows_) advance_to_nonempty_window();
      prefetch();
    }
    const Envelope& operator*() const;
    WindowIterator& operator++() {
      cur_ = next_;
      if (all_windows_ && cur_ < 0) advance_to_nonempty_window();
      prefetch();
      return *this;
    }
    bool operator!=(const WindowIterator& o) const { return cur_ != o.cur_; }
    bool operator==(const WindowIterator& o) const { return cur_ == o.cur_; }

   private:
    void advance_to_nonempty_window();
    void skip_lazy();
    void prefetch();

    const MessageBuffer* buf_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
    std::int64_t window_;  ///< window of cur_ (all_windows) or the filter
    bool all_windows_;
  };

  template <typename Iter>
  class Range {
   public:
    Range(Iter begin, Iter end) : begin_(begin), end_(end) {}
    [[nodiscard]] Iter begin() const { return begin_; }
    [[nodiscard]] Iter end() const { return end_; }
    [[nodiscard]] bool empty() const { return !(begin_ != end_); }

   private:
    Iter begin_;
    Iter end_;
  };

  /// All pending messages addressed to `receiver` (send order).
  [[nodiscard]] Range<PendingIterator> pending_to(ProcId receiver) const;

  /// Pending messages to `receiver` from `sender` (send order).
  [[nodiscard]] Range<PendingIterator> pending_from_to(ProcId sender,
                                                       ProcId receiver) const;

  /// All pending messages sent during window `w` (send order).
  [[nodiscard]] Range<WindowIterator> pending_in_window(std::int64_t w) const;

  /// Every pending message (send order).
  [[nodiscard]] Range<WindowIterator> all_pending() const;

  // ---- allocating conveniences (diagnostics / tests) ---------------------

  [[nodiscard]] std::vector<MsgId> pending_to_ids(ProcId receiver) const;
  [[nodiscard]] std::vector<MsgId> pending_from_to_ids(ProcId sender,
                                                       ProcId receiver) const;
  [[nodiscard]] std::vector<MsgId> pending_in_window_ids(std::int64_t w) const;
  [[nodiscard]] std::vector<MsgId> all_pending_ids() const;

  // ---- counters and arena introspection ----------------------------------

  [[nodiscard]] std::size_t total_sent() const noexcept {
    return static_cast<std::size_t>(next_id_);
  }
  [[nodiscard]] std::size_t pending_count() const noexcept { return pending_; }
  [[nodiscard]] std::size_t delivered_count() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::size_t dropped_count() const noexcept { return dropped_; }
  [[nodiscard]] int n() const noexcept { return n_; }

  /// Slots ever materialized — the arena's high-water mark. Stays flat once
  /// the peak live load is reached, no matter how long the run is.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return envs_.size();
  }
  /// Allocated arena slots — unlike slot_capacity(), this survives reset():
  /// the trial-reuse path rewinds the materialized span but keeps the
  /// allocation, so steady-state trials re-materialize allocation-free.
  [[nodiscard]] std::size_t slot_reserve() const noexcept {
    return envs_.capacity();
  }

  /// Opt-in invariant auditor: verify the full arena state — receiver and
  /// window lists (doubly-linked, acyclic, ascending-id, field-consistent,
  /// ids within the window list's recorded range), two-tier id resolution
  /// (every pending id at or above the direct base resolves through the
  /// direct index, every older one through the straggler map, and both
  /// structures hold nothing else), SoA lockstep (metadata id mirrors the
  /// envelope id on every live slot), lazy-parked slot accounting,
  /// free-list integrity, and that every slot is in exactly one of
  /// {pending, parked, free} with the lifecycle counters summing to
  /// total_sent(). Throws std::logic_error on the first violation.
  /// O(slots) with scratch allocation — meant for window boundaries under
  /// ExecutionConfig::audit, self-tests, and post-reset validation, not the
  /// hot path.
  void audit() const;

 private:
  friend class PendingIterator;
  friend class WindowIterator;
  friend struct AuditTestAccess;

  /// Intrusive list links, one entry per slot (SoA: kept apart from the
  /// metadata and envelope arrays so list surgery touches only this).
  struct Link {
    std::int32_t prev_rcv = -1;
    std::int32_t next_rcv = -1;  ///< doubles as the free-list link
    std::int32_t prev_win = -1;
    std::int32_t next_win = -1;
  };

  /// Hot 16-byte per-slot metadata: everything the delivery walk and the
  /// plan-validation scan filter on. `id == kNoMsg` means the slot is NOT
  /// pending — either parked (delivered, awaiting its window sweep; the
  /// envelope still carries the id) or free (envelope id is kNoMsg too).
  struct Meta {
    MsgId id = kNoMsg;
    ProcId receiver = -1;
    ProcId sender = -1;
  };

  /// One send-window's pending list plus its member id range. `first_id` /
  /// `last_id` bound every id ever linked onto the list; while
  /// `contiguous` holds (no other window's ids were interleaved between
  /// this window's batches — always true under the engine's
  /// one-window-at-a-time publication), membership in [first_id, last_id]
  /// is EXACT for pending slots, giving deliver_window_run_to a window
  /// test that never touches the envelope.
  struct WinList {
    std::int32_t head = -1;
    std::int32_t tail = -1;
    MsgId first_id = kNoMsg;
    MsgId last_id = kNoMsg;
    bool contiguous = true;
  };

  /// Direct index size bound: past this many entries add_batch spills the
  /// live ones into the straggler map (async regime, where no window sweep
  /// ever rewinds the index). 64Ki entries = 256 KiB — far above any
  /// window-regime working set, far below the horizon of a long async run.
  static constexpr std::size_t kDirectSpillLimit = std::size_t{1} << 16;

  /// Slot index for a live id; kAbsentSlot when retired. Throws on ids
  /// never issued. Two-tier: dense direct-index load for ids >=
  /// direct_base_, straggler hash map below it.
  [[nodiscard]] std::int32_t slot_of(MsgId id) const;
  /// Unlink from both lists, erase the id mapping, push onto the free list.
  void retire(std::int32_t slot);
  void unlink_receiver(std::int32_t slot);
  void unlink_window(std::int32_t slot);
  /// Pop leading empty window lists (the newest list always survives so a
  /// re-send into the current window can extend it).
  void trim_window_ring();

  [[nodiscard]] WinList& win_list(std::int64_t w) {
    return win_ring_[static_cast<std::size_t>(
        (win_begin_ + static_cast<std::size_t>(w - win_base_)) & win_mask_)];
  }
  [[nodiscard]] const WinList& win_list(std::int64_t w) const {
    return win_ring_[static_cast<std::size_t>(
        (win_begin_ + static_cast<std::size_t>(w - win_base_)) & win_mask_)];
  }
  /// Ensure the ring covers window w (extending with empty lists).
  void reserve_window(std::int64_t w);

  int n_;
  // SoA slot arena: three lockstep arrays (see Link / Meta above; envs_ is
  // the canonical envelope storage every view points into).
  std::vector<Link> links_;
  std::vector<Meta> meta_;
  std::vector<Envelope> envs_;
  std::int32_t free_head_ = -1;

  // Two-tier id → slot resolution. direct_slots_[id - direct_base_] is the
  // slot that id was assigned to, for every id in [direct_base_, next_id_)
  // (stale entries are disarmed by the meta_ id check — a recycled slot
  // carries a different id). id_map_ holds EXACTLY the pending ids below
  // direct_base_; ids at or above it are never in the map.
  detail::MsgIdMap id_map_;
  MsgId next_id_ = 0;
  MsgId direct_base_ = 0;
  std::vector<std::int32_t> direct_slots_;

  std::vector<std::int32_t> rcv_head_;
  std::vector<std::int32_t> rcv_tail_;

  // Circular buffer of per-window pending lists for windows
  // [win_base_, win_base_ + win_count_).
  std::vector<WinList> win_ring_;
  std::size_t win_begin_ = 0;
  std::size_t win_mask_ = 0;
  std::size_t win_count_ = 0;
  std::int64_t win_base_ = 0;

  std::size_t pending_ = 0;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;

  /// Accountability lens (owned by the caller; null = lens off).
  lens::WindowTrace* trace_ = nullptr;
};

}  // namespace aa::sim
