// MessageBuffer: the in-flight message store of the §5 async model, backed
// by a recycling slot arena — and the id space and lifecycle counters that
// both message stores share.
//
// There is one store per model. The acceptable-window model keeps each
// window's messages in its senders' runs (the window store, plan.hpp):
// it only CLAIMS their ids here (claim_ids) and reports how many were
// delivered and dropped (retire_claimed), so total_sent, delivered_count
// and dropped_count cover both models. The async model publishes into the
// arena (add_batch) and delivers one message at a time (mark_delivered);
// it never drops anything, so the arena has no drop path at all.
//
// The adversary has full information: it can inspect every pending
// envelope. A message is in exactly one of three states: pending,
// delivered, dropped.
//
// Arena design (the O(live) rewrite, now SoA):
//   * MsgIds stay monotonically increasing — the adversary-visible identity
//     and all iteration orders are unchanged from the append-only store.
//   * Each live (pending) message occupies one reusable slot; a delivered
//     message releases its slot immediately, so memory is O(peak live
//     messages), independent of execution length.
//   * Slot storage is struct-of-arrays: the intrusive list links (`links_`),
//     the 16-byte hot metadata the receiver walks filter on (`meta_`: id,
//     receiver, sender), and the full envelopes (`envs_`) live in three
//     lockstep arrays.
//   * Ids resolve to slots in two tiers. Ids at or above `direct_base_`
//     resolve through a dense direct-index array (one bounds-checked load,
//     no hashing). Older ids ("stragglers": messages that outlive a spill
//     of the direct index) live in an open-addressing table (linear probing
//     with backward-shift deletion). A claim rewinds the direct index to
//     the id watermark in O(1), since it requires an empty arena.
//   * Slots are threaded onto intrusive doubly-linked lists kept in
//     ascending-id (send) order: one per receiver, and one send list that
//     holds every pending slot. pending_to and all_pending iterate those
//     lists in O(result).
//
// Because slots recycle, envelope lookups are only valid for PENDING arena
// ids: querying a retired id throws (std::logic_error), and is_pending(id)
// is the only question that can be asked about the whole history (claimed
// ids answer false: they are not the arena's).
//
// Envelope-view invalidation contract: references returned by get() and
// iteration point into the envelope array `envs_` and are invalidated by
// the next add_batch (which may grow all three SoA arrays) and by the
// delivery of that message (which recycles its slot). Rewinding or
// spilling the direct index moves only id→slot bookkeeping and never
// touches envelope storage. Holders that outlive a publication must copy
// the envelope out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace aa::sim {

namespace detail {

/// Open-addressing MsgId → slot-index map (linear probing, power-of-two
/// capacity, backward-shift deletion — no tombstones, so steady-state
/// insert/erase churn never degrades or reallocates). Holds only the
/// SPILLED tier of ids (below MessageBuffer's direct-index base).
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

  /// Precondition: key present. Outside MessageBuffer's own retire path
  /// this is never the right call: ids at or above the direct base are not
  /// in the map (enforced by aa_lint's idmap-erase rule).
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
  // monotonically assigned keys, but it packs a spill's live ids into ONE
  // contiguous probe run — and backward-shift deletion of ascending ids
  // then rescans the whole remaining run per erase, an O(live²) pathology
  // per spill. Mixing the key keeps probe runs O(1) for every access
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
  /// table, direct index, receiver lists) — the campaign trial-reuse path:
  /// after the first trial warms a worker's buffer up, later same-shape
  /// trials allocate nothing. Observable behaviour is identical to a fresh
  /// MessageBuffer(n): ids restart at 0 and every list is empty.
  void reset(int n);

  /// Publication: add `sender`'s staged run in staging order. Ids are
  /// consecutive starting at the returned value (== total_sent() before
  /// the call, also for an empty run), and receiver lists stay
  /// ascending-id. One pass allocates the slot run, appends it to the
  /// send list and extends the dense direct index (no hash inserts).
  MsgId add_batch(ProcId sender, std::span<const StagedMessage> items,
                  std::int64_t window, std::int64_t chain);

  /// Envelope lookup. Valid for PENDING ids only (retired slots recycle).
  [[nodiscard]] const Envelope& get(MsgId id) const;

  /// True iff `id` is a live arena message. Retired (delivered) and
  /// claimed ids return false; ids never issued throw.
  [[nodiscard]] bool is_pending(MsgId id) const;

  /// Transition pending → delivered and recycle the slot. Precondition:
  /// pending (a retired id throws std::logic_error).
  void mark_delivered(MsgId id);

  /// Issue `count` consecutive ids to a store outside the arena (the
  /// window store) and return the first. They count as pending until
  /// retire_claimed settles them. Precondition: the arena holds nothing
  /// pending, so the direct index rewinds to the new watermark in O(1).
  MsgId claim_ids(std::size_t count);

  /// Settle claimed ids: `delivered` of them were delivered and `dropped`
  /// dropped. Precondition: at most claimed_count() in total.
  void retire_claimed(std::size_t delivered, std::size_t dropped);

  /// Migrate every live directly-indexed id into the straggler hash map and
  /// rewind the direct index to start at the current id watermark. Purely
  /// an id→slot bookkeeping move: no envelope storage is touched, no view
  /// is invalidated, and every query answers identically. add_batch calls
  /// it when the direct index outgrows its size bound (long async runs).
  void spill_direct_index();

  // ---- allocation-free iteration (ascending-id order) --------------------
  //
  // Ranges yield `const Envelope&`. Iterators prefetch their successor, so
  // retiring the CURRENT element (mark_delivered) while iterating is safe;
  // retiring any other element or adding messages mid-iteration is not.

  /// Walks one receiver's pending list.
  class PendingIterator {
   public:
    PendingIterator(const MessageBuffer* buf, std::int32_t slot)
        : buf_(buf), cur_(slot) {
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
    void prefetch();

    const MessageBuffer* buf_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
  };

  /// Walks the send list.
  class SendOrderIterator {
   public:
    SendOrderIterator(const MessageBuffer* buf, std::int32_t slot)
        : buf_(buf), cur_(slot) {
      prefetch();
    }
    const Envelope& operator*() const;
    SendOrderIterator& operator++() {
      cur_ = next_;
      prefetch();
      return *this;
    }
    bool operator!=(const SendOrderIterator& o) const {
      return cur_ != o.cur_;
    }
    bool operator==(const SendOrderIterator& o) const {
      return cur_ == o.cur_;
    }

   private:
    void prefetch();

    const MessageBuffer* buf_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
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

  /// Every pending message (send order).
  [[nodiscard]] Range<SendOrderIterator> all_pending() const;

  // ---- allocating conveniences (diagnostics / tests) ---------------------

  [[nodiscard]] std::vector<MsgId> pending_to_ids(ProcId receiver) const;
  [[nodiscard]] std::vector<MsgId> all_pending_ids() const;

  // ---- counters and arena introspection ----------------------------------

  [[nodiscard]] std::size_t total_sent() const noexcept {
    return static_cast<std::size_t>(next_id_);
  }
  /// Messages published and neither delivered nor dropped: the arena's
  /// pending messages plus the claimed ids not yet settled.
  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_ + claimed_;
  }
  /// Claimed ids not yet settled by retire_claimed.
  [[nodiscard]] std::size_t claimed_count() const noexcept { return claimed_; }
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

  /// Opt-in invariant auditor: verify the full arena state — receiver lists
  /// and the send list (doubly-linked, acyclic, ascending-id,
  /// field-consistent, one window on the send list), two-tier id
  /// resolution (every pending id at or above the direct base resolves
  /// through the direct index, every older one through the straggler map,
  /// and both structures hold nothing else), SoA lockstep (metadata id
  /// mirrors the envelope id on every live slot), free-list integrity, that
  /// every slot is either pending or free, and that the lifecycle counters
  /// (claimed ids included) sum to total_sent(). Throws std::logic_error on
  /// the first violation. O(slots) with scratch allocation — meant for
  /// window boundaries under ExecutionConfig::audit, self-tests, and
  /// post-reset validation, not the hot path.
  void audit() const;

 private:
  friend class PendingIterator;
  friend class SendOrderIterator;
  friend struct AuditTestAccess;

  /// Intrusive list links, one entry per slot (SoA: kept apart from the
  /// metadata and envelope arrays so list surgery touches only this).
  struct Link {
    std::int32_t prev_rcv = -1;
    std::int32_t next_rcv = -1;  ///< doubles as the free-list link
    std::int32_t prev_sent = -1;
    std::int32_t next_sent = -1;
  };

  /// Hot 16-byte per-slot metadata: everything a receiver walk filters on.
  /// `id == kNoMsg` means the slot is free (its envelope id is kNoMsg too).
  struct Meta {
    MsgId id = kNoMsg;
    ProcId receiver = -1;
    ProcId sender = -1;
  };

  /// Direct index size bound: past this many entries add_batch spills the
  /// live ones into the straggler map (a long async run never rewinds the
  /// index). 64Ki entries = 256 KiB — far below the horizon of a long
  /// async run.
  static constexpr std::size_t kDirectSpillLimit = std::size_t{1} << 16;

  /// Slot index for a live id; kAbsentSlot when retired. Throws on ids
  /// never issued. Two-tier: dense direct-index load for ids >=
  /// direct_base_, straggler hash map below it.
  [[nodiscard]] std::int32_t slot_of(MsgId id) const;
  /// Unlink from both lists, erase the id mapping, push onto the free list.
  void retire(std::int32_t slot);
  void unlink_receiver(std::int32_t slot);
  void unlink_sent(std::int32_t slot);

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

  // The send list: every pending slot, in ascending-id order.
  std::int32_t sent_head_ = -1;
  std::int32_t sent_tail_ = -1;

  std::size_t pending_ = 0;   ///< arena messages on the lists
  std::size_t claimed_ = 0;   ///< claimed ids not yet settled
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace aa::sim
