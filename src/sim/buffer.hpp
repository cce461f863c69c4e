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
// Arena design:
//   * MsgIds stay monotonically increasing — the adversary-visible identity
//     and all iteration orders are those of an append-only store.
//   * Each live (pending) message occupies one reusable slot, its envelope
//     next to its list links; a delivered message releases its slot
//     immediately, so memory is O(peak live messages), independent of
//     execution length. A free slot carries the id kNoMsg.
//   * Every pending id resolves to its slot through one open-addressing
//     table (MsgIdMap), which holds exactly the pending ids.
//   * Slots are threaded onto one intrusive doubly-linked list per
//     receiver, kept in ascending-id (send) order; pending_to iterates one
//     in O(result). There is no global send-order list: a reader that
//     wants the oldest qualifying message takes the lowest of the
//     receivers' first qualifying ids.
//
// Because slots recycle, envelope lookups are only valid for PENDING arena
// ids: querying a retired id throws (std::logic_error), and is_pending(id)
// is the only question that can be asked about the whole history (claimed
// ids answer false: they are not the arena's).
//
// Envelope-view invalidation contract: references returned by get() and
// iteration point into the slot array and are invalidated by the next
// add_batch (which may grow it) and by the delivery of that message (which
// recycles its slot). Holders that outlive a publication must copy the
// envelope out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace aa::sim {

/// Test-only backdoor used by the auditor self-test to plant corruptions
/// (defined in tests/sim/test_audit.cpp; never part of the library).
struct AuditTestAccess;

class MessageBuffer {
  /// Receiver-list links of one slot.
  struct Link {
    std::int32_t prev_rcv = -1;
    std::int32_t next_rcv = -1;  ///< doubles as the free-list link
  };

  /// One arena slot: `env.id == kNoMsg` means the slot is free. 56 bytes
  /// of payload padded to one cache line, so no slot straddles two.
  struct alignas(64) Slot {
    Envelope env;
    Link link;
  };
  static_assert(sizeof(Slot) == 64);

 public:
  explicit MessageBuffer(int n);

  /// Restore the freshly-constructed state for `n` processors while
  /// KEEPING every capacity the previous run grew (slot arena, id-map
  /// table, receiver lists) — the campaign trial-reuse path: after the
  /// first trial warms a worker's buffer up, later same-shape trials
  /// allocate nothing. Observable behaviour is identical to a fresh
  /// MessageBuffer(n): ids restart at 0 and every list is empty.
  void reset(int n);

  /// Publication: add `sender`'s staged run in staging order. Ids are
  /// consecutive starting at the returned value (== total_sent() before
  /// the call, also for an empty run), and receiver lists stay
  /// ascending-id.
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
  /// pending.
  MsgId claim_ids(std::size_t count);

  /// Settle claimed ids: `delivered` of them were delivered and `dropped`
  /// dropped. Precondition: at most claimed_count() in total.
  void retire_claimed(std::size_t delivered, std::size_t dropped);

  // ---- allocation-free iteration (ascending-id order) --------------------
  //
  // Ranges yield `const Envelope&`. Iterators prefetch their successor, so
  // retiring the CURRENT element (mark_delivered) while iterating is safe;
  // retiring any other element or adding messages mid-iteration is not.

  /// Walks one receiver's pending list.
  class PendingIterator {
   public:
    PendingIterator(const Slot* slots, std::int32_t slot)
        : slots_(slots), cur_(slot) {
      prefetch();
    }
    const Envelope& operator*() const {
      return slots_[static_cast<std::size_t>(cur_)].env;
    }
    PendingIterator& operator++() {
      cur_ = next_;
      prefetch();
      return *this;
    }
    bool operator==(const PendingIterator& o) const {
      return cur_ == o.cur_;
    }

   private:
    void prefetch() {
      next_ = cur_ < 0
                  ? -1
                  : slots_[static_cast<std::size_t>(cur_)].link.next_rcv;
    }

    const Slot* slots_;
    std::int32_t cur_;
    std::int32_t next_ = -1;
  };
  class Range {
   public:
    Range(PendingIterator begin, PendingIterator end)
        : begin_(begin), end_(end) {}
    [[nodiscard]] PendingIterator begin() const { return begin_; }
    [[nodiscard]] PendingIterator end() const { return end_; }
    [[nodiscard]] bool empty() const { return !(begin_ != end_); }

   private:
    PendingIterator begin_;
    PendingIterator end_;
  };

  /// All pending messages addressed to `receiver` (send order).
  [[nodiscard]] Range pending_to(ProcId receiver) const;

  // ---- allocating conveniences (diagnostics / tests) ---------------------

  [[nodiscard]] std::vector<MsgId> pending_to_ids(ProcId receiver) const;
  /// Every pending id, ascending: the receiver lists gathered and sorted.
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
    return slots_.size();
  }
  /// Allocated arena slots — unlike slot_capacity(), this survives reset():
  /// the trial-reuse path rewinds the materialized span but keeps the
  /// allocation, so steady-state trials re-materialize allocation-free.
  [[nodiscard]] std::size_t slot_reserve() const noexcept {
    return slots_.capacity();
  }
  /// Cells of the id → slot table. Sized by the peak pending count, not by
  /// the ids issued, so it too stays flat over any horizon.
  [[nodiscard]] std::size_t id_index_capacity() const noexcept {
    return id_map_.capacity();
  }

  /// Opt-in invariant auditor: verify the full arena state — receiver lists
  /// (doubly-linked, acyclic, ascending-id, field-consistent, one window
  /// across all of them), that the id map holds
  /// exactly the pending ids and resolves each to its own slot, free-list
  /// integrity, that every slot is either pending or free, and that the
  /// lifecycle counters (claimed ids included) sum to total_sent(). Throws
  /// std::logic_error on the first violation. O(slots) with scratch
  /// allocation — meant for ExecutionConfig::audit, self-tests, and
  /// post-reset validation, not the hot path.
  void audit() const;

 private:
  friend struct AuditTestAccess;

  /// Open-addressing MsgId → slot-index map (linear probing, power-of-two
  /// capacity, backward-shift deletion — no tombstones, so steady-state
  /// insert/erase churn never degrades or reallocates).
  class MsgIdMap {
   public:
    static constexpr std::uint32_t kAbsent = 0xffffffffu;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] std::size_t capacity() const noexcept {
      return cells_.size();
    }

    [[nodiscard]] std::uint32_t find(MsgId key) const noexcept {
      if (cells_.empty()) return kAbsent;
      std::size_t i = home(key);
      while (cells_[i].key != kNoMsg) {
        if (cells_[i].key == key) return cells_[i].value;
        i = (i + 1) & mask_;
      }
      return kAbsent;
    }

    /// Precondition: key absent.
    void insert(MsgId key, std::uint32_t value) {
      if ((size_ + 1) * 4 >= cells_.size() * 3) grow();
      std::size_t i = home(key);
      while (cells_[i].key != kNoMsg) i = (i + 1) & mask_;
      cells_[i] = Cell{key, value};
      ++size_;
    }

    /// Empty the map, keeping its capacity (trial-reuse path).
    void clear() noexcept {
      for (Cell& c : cells_) c = Cell{};
      size_ = 0;
    }

    /// Precondition: key present.
    void erase(MsgId key) noexcept {
      std::size_t i = home(key);
      while (cells_[i].key != key) i = (i + 1) & mask_;
      // Backward-shift deletion: close the probe chain over the vacated
      // cell.
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
    // monotonically assigned keys, but ids are inserted and erased in
    // ascending order, so the live ids pack into ONE contiguous probe run —
    // and backward-shift deletion of the oldest id then rescans the whole
    // run per erase, an O(live²) pathology. Mixing the key keeps probe runs
    // O(1) for every access pattern, erase included.
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

  /// Slot index for a live id; -1 when retired or claimed. Throws on ids
  /// never issued.
  [[nodiscard]] std::int32_t slot_of(MsgId id) const;
  /// Unlink from its receiver list, erase the id mapping, push onto the
  /// free list.
  void retire(std::int32_t slot);

  int n_;
  std::vector<Slot> slots_;
  std::int32_t free_head_ = -1;

  MsgIdMap id_map_;  ///< exactly the pending ids → their slots
  MsgId next_id_ = 0;

  std::vector<std::int32_t> rcv_head_;
  std::vector<std::int32_t> rcv_tail_;

  std::size_t pending_ = 0;   ///< arena messages on the lists
  std::size_t claimed_ = 0;   ///< claimed ids not yet settled
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace aa::sim
