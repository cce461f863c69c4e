#include "sim/buffer.hpp"

#include "lens/trace.hpp"
#include "util/check.hpp"

namespace aa::sim {

namespace {
constexpr std::int32_t kNoSlot = -1;
}  // namespace

MessageBuffer::MessageBuffer(int n)
    : n_(n),
      rcv_head_(static_cast<std::size_t>(n), kNoSlot),
      rcv_tail_(static_cast<std::size_t>(n), kNoSlot) {
  AA_REQUIRE(n > 0, "MessageBuffer: n must be positive");
  win_ring_.assign(1, WinList{});
  win_mask_ = 0;
  win_count_ = 1;
}

void MessageBuffer::reset(int n) {
  AA_REQUIRE(n > 0, "MessageBuffer::reset: n must be positive");
  n_ = n;
  // Capacities kept everywhere; slots re-materialize allocation-free.
  links_.clear();
  meta_.clear();
  envs_.clear();
  free_head_ = kNoSlot;
  id_map_.clear();
  next_id_ = 0;
  direct_base_ = 0;
  direct_slots_.clear();
  rcv_head_.assign(static_cast<std::size_t>(n), kNoSlot);
  rcv_tail_.assign(static_cast<std::size_t>(n), kNoSlot);
  // Ring capacity (and mask) survive; only the active span is rewound.
  if (win_ring_.empty()) {
    win_ring_.assign(1, WinList{});
    win_mask_ = 0;
  }
  win_begin_ = 0;
  win_ring_[0] = WinList{};
  win_count_ = 1;
  win_base_ = 0;
  pending_ = 0;
  delivered_ = 0;
  dropped_ = 0;
}

MsgId MessageBuffer::add(ProcId sender, ProcId receiver,
                         const Message& payload, std::int64_t window,
                         std::int64_t chain) {
  const StagedMessage item{receiver, payload};
  return add_batch(sender, std::span<const StagedMessage>(&item, 1), window,
                   chain);
}

MsgId MessageBuffer::add_batch(ProcId sender,
                               std::span<const StagedMessage> items,
                               std::int64_t window, std::int64_t chain) {
  AA_REQUIRE(sender >= 0 && sender < n_, "MessageBuffer::add_batch: bad sender");
  AA_REQUIRE(window >= win_base_,
             "MessageBuffer::add_batch: window counter moved backwards");
  const MsgId first = next_id_;
  if (items.empty()) return first;
  for (const StagedMessage& item : items) {
    AA_REQUIRE(item.to >= 0 && item.to < n_,
               "MessageBuffer::add_batch: bad receiver");
  }
  if (direct_slots_.size() >= kDirectSpillLimit) spill_direct_index();
  reserve_window(window);
  // The window ring and win_list reference stay stable across the loop
  // (one window, reserved once); the slot arrays may still grow, so all
  // links go through indices.
  std::int32_t win_prev = win_list(window).tail;
  std::int32_t win_head = win_list(window).head;
  for (const StagedMessage& item : items) {
    const MsgId id = next_id_++;
    std::int32_t s;
    if (free_head_ != kNoSlot) {
      s = free_head_;
      free_head_ = links_[static_cast<std::size_t>(s)].next_rcv;
    } else {
      s = static_cast<std::int32_t>(envs_.size());
      links_.emplace_back();
      meta_.emplace_back();
      envs_.emplace_back();
    }
    const auto si = static_cast<std::size_t>(s);
    meta_[si] = Meta{id, item.to, sender};
    envs_[si] = Envelope{id, sender, item.to, item.msg, window, chain};
    Link& lk = links_[si];

    // Append to the receiver list (staging order is ascending-id order).
    lk.prev_rcv = rcv_tail_[static_cast<std::size_t>(item.to)];
    lk.next_rcv = kNoSlot;
    if (lk.prev_rcv != kNoSlot) {
      links_[static_cast<std::size_t>(lk.prev_rcv)].next_rcv = s;
    } else {
      rcv_head_[static_cast<std::size_t>(item.to)] = s;
    }
    rcv_tail_[static_cast<std::size_t>(item.to)] = s;

    // Thread the run onto the window list locally; head/tail attach once
    // after the loop.
    lk.prev_win = win_prev;
    lk.next_win = kNoSlot;
    if (win_prev != kNoSlot) {
      links_[static_cast<std::size_t>(win_prev)].next_win = s;
    } else {
      win_head = s;
    }
    win_prev = s;

    direct_slots_.push_back(s);
  }
  WinList& wl = win_list(window);
  wl.head = win_head;
  wl.tail = win_prev;
  // Extend the list's id range; interleaved publication into ANOTHER window
  // (raw buffer usage only — the engine publishes one window at a time)
  // breaks contiguity and demotes the range to a conservative bound.
  if (wl.first_id == kNoMsg) {
    wl.first_id = first;
    wl.contiguous = true;
  } else if (first != wl.last_id + 1) {
    wl.contiguous = false;
  }
  wl.last_id = next_id_ - 1;
  pending_ += items.size();
  return first;
}

std::int32_t MessageBuffer::slot_of(MsgId id) const {
  AA_REQUIRE(id >= 0 && id < next_id_, "MessageBuffer: bad id");
  if (id >= direct_base_) {
    const std::int32_t s =
        direct_slots_[static_cast<std::size_t>(id - direct_base_)];
    return meta_[static_cast<std::size_t>(s)].id == id ? s : kNoSlot;
  }
  const std::uint32_t s = id_map_.find(id);
  return s == detail::MsgIdMap::kAbsent ? kNoSlot
                                        : static_cast<std::int32_t>(s);
}

const Envelope& MessageBuffer::get(MsgId id) const {
  const std::int32_t s = slot_of(id);
  AA_CHECK(s != kNoSlot, "MessageBuffer::get: id already retired");
  return envs_[static_cast<std::size_t>(s)];
}

bool MessageBuffer::is_pending(MsgId id) const {
  return slot_of(id) != kNoSlot;
}

void MessageBuffer::unlink_receiver(std::int32_t s) {
  Link& lk = links_[static_cast<std::size_t>(s)];
  const ProcId r = meta_[static_cast<std::size_t>(s)].receiver;
  if (lk.prev_rcv != kNoSlot) {
    links_[static_cast<std::size_t>(lk.prev_rcv)].next_rcv = lk.next_rcv;
  } else {
    rcv_head_[static_cast<std::size_t>(r)] = lk.next_rcv;
  }
  if (lk.next_rcv != kNoSlot) {
    links_[static_cast<std::size_t>(lk.next_rcv)].prev_rcv = lk.prev_rcv;
  } else {
    rcv_tail_[static_cast<std::size_t>(r)] = lk.prev_rcv;
  }
}

void MessageBuffer::unlink_window(std::int32_t s) {
  Link& lk = links_[static_cast<std::size_t>(s)];
  WinList& wl = win_list(envs_[static_cast<std::size_t>(s)].window);
  if (lk.prev_win != kNoSlot) {
    links_[static_cast<std::size_t>(lk.prev_win)].next_win = lk.next_win;
  } else {
    wl.head = lk.next_win;
  }
  if (lk.next_win != kNoSlot) {
    links_[static_cast<std::size_t>(lk.next_win)].prev_win = lk.prev_win;
  } else {
    wl.tail = lk.prev_win;
  }
}

void MessageBuffer::retire(std::int32_t s) {
  const auto si = static_cast<std::size_t>(s);
  unlink_receiver(s);
  unlink_window(s);
  const MsgId id = meta_[si].id;
  if (id < direct_base_) id_map_.erase(id);
  meta_[si].id = kNoMsg;
  envs_[si].id = kNoMsg;
  links_[si].next_rcv = free_head_;
  free_head_ = s;
  trim_window_ring();
}

void MessageBuffer::trim_window_ring() {
  while (win_count_ > 1 && win_ring_[win_begin_].head == kNoSlot) {
    win_ring_[win_begin_] = WinList{};
    win_begin_ = (win_begin_ + 1) & win_mask_;
    ++win_base_;
    --win_count_;
  }
}

void MessageBuffer::reserve_window(std::int64_t w) {
  if (w < win_base_ + static_cast<std::int64_t>(win_count_)) return;
  const std::size_t need =
      static_cast<std::size_t>(w - win_base_) + 1;
  if (need > win_ring_.size()) {
    // Grow to the next power of two and linearize the ring.
    std::size_t cap = win_ring_.empty() ? 1 : win_ring_.size();
    while (cap < need) cap *= 2;
    std::vector<WinList> bigger(cap);
    for (std::size_t i = 0; i < win_count_; ++i) {
      bigger[i] = win_ring_[(win_begin_ + i) & win_mask_];
    }
    win_ring_ = std::move(bigger);
    win_begin_ = 0;
    win_mask_ = cap - 1;
  }
  while (static_cast<std::size_t>(w - win_base_) >= win_count_) {
    win_ring_[(win_begin_ + win_count_) & win_mask_] = WinList{};
    ++win_count_;
  }
}

void MessageBuffer::spill_direct_index() {
  if (!direct_slots_.empty()) {
    id_map_.reserve_extra(pending_);
    for (std::size_t i = 0; i < direct_slots_.size(); ++i) {
      const std::int32_t s = direct_slots_[i];
      const MsgId id = direct_base_ + static_cast<MsgId>(i);
      if (meta_[static_cast<std::size_t>(s)].id == id) {
        id_map_.insert_no_grow(id, static_cast<std::uint32_t>(s));
      }
    }
    direct_slots_.clear();
  }
  direct_base_ = next_id_;
}

void MessageBuffer::mark_delivered(MsgId id) {
  const std::int32_t s = slot_of(id);
  AA_CHECK(s != kNoSlot, "mark_delivered: message not pending");
  retire(s);
  --pending_;
  ++delivered_;
}

int MessageBuffer::deliver_window_run_to(ProcId receiver, std::int64_t w,
                                         const std::uint64_t* sender_stamp,
                                         std::uint64_t epoch,
                                         std::span<const Envelope*> out,
                                         std::int32_t* cursor) {
  AA_REQUIRE(receiver >= 0 && receiver < n_,
             "deliver_window_run_to: bad receiver");
  if (w < win_base_ ||
      w >= win_base_ + static_cast<std::int64_t>(win_count_)) {
    return 0;  // no list for w, so nothing pending in it
  }
  const WinList& wl = win_list(w);
  if (wl.head == kNoSlot) return 0;
  // Window test: the list's id range when exact, the envelope field as the
  // cold fallback (only reachable through raw interleaved-window usage).
  const bool ranged = wl.contiguous;
  const MsgId lo = wl.first_id;
  const MsgId hi = wl.last_id;
  std::int32_t s = rcv_head_[static_cast<std::size_t>(receiver)];
  std::int32_t prev_kept = kNoSlot;
  std::int32_t new_head = kNoSlot;
  int delivered = 0;
  while (s != kNoSlot) {
    const auto si = static_cast<std::size_t>(s);
    Link& lk = links_[si];
    Meta& mt = meta_[si];
    const std::int32_t next = lk.next_rcv;
    const bool in_window =
        ranged ? (mt.id >= lo && mt.id <= hi) : envs_[si].window == w;
    const bool take =
        in_window &&
        (sender_stamp == nullptr ||
         sender_stamp[static_cast<std::size_t>(mt.sender)] == epoch);
    if (take) {
      // Park the slot: off the receiver list and the live index now,
      // recycled by the caller's eventual window-w sweep.
      if (mt.id < direct_base_) id_map_.erase(mt.id);
      mt.id = kNoMsg;
      std::int32_t& at = cursor[static_cast<std::size_t>(mt.sender)];
      const auto pos = static_cast<std::size_t>(at++);
      AA_CHECK(pos < out.size(),
               "deliver_window_run_to: sender segment overflows the output");
      out[pos] = &envs_[si];
      ++delivered;
    } else {
      lk.prev_rcv = prev_kept;
      if (prev_kept == kNoSlot) {
        new_head = s;
      } else {
        links_[static_cast<std::size_t>(prev_kept)].next_rcv = s;
      }
      prev_kept = s;
    }
    s = next;
  }
  if (prev_kept != kNoSlot) {
    links_[static_cast<std::size_t>(prev_kept)].next_rcv = kNoSlot;
  }
  rcv_head_[static_cast<std::size_t>(receiver)] = new_head;
  rcv_tail_[static_cast<std::size_t>(receiver)] = prev_kept;
  pending_ -= static_cast<std::size_t>(delivered);
  delivered_ += static_cast<std::size_t>(delivered);
  return delivered;
}

std::size_t MessageBuffer::drop_pending_in_window(std::int64_t w) {
  if (w < win_base_ ||
      w >= win_base_ + static_cast<std::int64_t>(win_count_)) {
    return 0;
  }
  std::size_t dropped = 0;
  std::int32_t s = win_list(w).head;
  while (s != kNoSlot) {
    const auto si = static_cast<std::size_t>(s);
    const std::int32_t next = links_[si].next_win;
    if (meta_[si].id == kNoMsg) {
      // Parked: the delivery walk already unlinked and unindexed
      // it — just recycle the slot.
    } else {
      // A still-pending slot swept at the window edge is exactly the
      // model's suppression event: the adversary never let it deliver.
      if (trace_ != nullptr) {
        trace_->on_suppress(meta_[si].sender, meta_[si].receiver);
      }
      unlink_receiver(s);
      if (meta_[si].id < direct_base_) id_map_.erase(meta_[si].id);
      meta_[si].id = kNoMsg;
      ++dropped;
    }
    envs_[si].id = kNoMsg;
    links_[si].next_rcv = free_head_;
    free_head_ = s;
    s = next;
  }
  win_list(w) = WinList{};
  trim_window_ring();
  pending_ -= dropped;
  dropped_ += dropped;
  if (pending_ == 0) {
    // Range retirement: nothing is pending anywhere, so every direct-index
    // entry is stale and the straggler map is necessarily empty — the whole
    // id range [direct_base_, next_id_) retires in O(1). In the
    // acceptable-window regime this fires at EVERY window edge, which is
    // what removes the per-message hash erases from the steady state.
    direct_base_ = next_id_;
    direct_slots_.clear();
  }
  return dropped;
}

// ---- invariant auditor -----------------------------------------------------

void MessageBuffer::audit() const {
  // Per-slot lifecycle classification discovered by walking the structures:
  // 0 = unseen, 1 = on a receiver list (pending, window membership not yet
  // confirmed), 2 = parked on a window list, 3 = pending confirmed on both
  // lists, 4 = on the free list. Every slot must end in {2, 3, 4}.
  const std::size_t cap = envs_.size();
  AA_CHECK(meta_.size() == cap && links_.size() == cap,
           "audit: SoA slot arrays out of lockstep");
  AA_CHECK(direct_base_ >= 0 && direct_base_ <= next_id_,
           "audit: direct-index base outside [0, next_id]");
  AA_CHECK(direct_slots_.size() ==
               static_cast<std::size_t>(next_id_ - direct_base_),
           "audit: direct index does not cover [direct_base, next_id)");
  std::vector<std::uint8_t> state(cap, 0);

  // Receiver lists: doubly-linked, acyclic, ascending-id, field-consistent,
  // and every member resolves through its id tier back to its own slot.
  std::size_t on_rcv_lists = 0;
  std::size_t mapped_pending = 0;  // pending ids below the direct base
  for (ProcId r = 0; r < n_; ++r) {
    std::int32_t s = rcv_head_[static_cast<std::size_t>(r)];
    std::int32_t prev = kNoSlot;
    MsgId last_id = kNoMsg;
    std::size_t steps = 0;
    while (s != kNoSlot) {
      AA_CHECK(s >= 0 && static_cast<std::size_t>(s) < cap,
               "audit: receiver list points outside the slot arena");
      AA_CHECK(++steps <= cap, "audit: receiver list has a cycle");
      const auto si = static_cast<std::size_t>(s);
      const Meta& mt = meta_[si];
      const Envelope& env = envs_[si];
      AA_CHECK(links_[si].prev_rcv == prev,
               "audit: receiver list prev link disagrees with walk");
      AA_CHECK(mt.id != kNoMsg,
               "audit: parked or retired slot on a receiver list");
      AA_CHECK(mt.id < next_id_,
               "audit: slot id beyond the issued-id watermark");
      AA_CHECK(env.id == mt.id,
               "audit: slot metadata id disagrees with its envelope");
      AA_CHECK(mt.receiver == r && env.receiver == r,
               "audit: slot on the wrong receiver list");
      AA_CHECK(mt.sender == env.sender,
               "audit: slot metadata sender disagrees with its envelope");
      AA_CHECK(mt.id > last_id,
               "audit: receiver list ids not strictly ascending");
      AA_CHECK(env.window >= win_base_ &&
                   env.window <
                       win_base_ + static_cast<std::int64_t>(win_count_),
               "audit: pending slot's window outside the live ring");
      if (mt.id >= direct_base_) {
        AA_CHECK(direct_slots_[static_cast<std::size_t>(
                     mt.id - direct_base_)] == s,
                 "audit: direct index does not resolve a pending id to its "
                 "slot");
      } else {
        AA_CHECK(id_map_.find(mt.id) == static_cast<std::uint32_t>(s),
                 "audit: id map does not resolve a pending id to its slot");
        ++mapped_pending;
      }
      AA_CHECK(state[si] == 0, "audit: slot reachable from two receiver lists");
      state[si] = 1;
      last_id = mt.id;
      prev = s;
      s = links_[si].next_rcv;
    }
    AA_CHECK(rcv_tail_[static_cast<std::size_t>(r)] == prev,
             "audit: receiver tail does not match the last list element");
    on_rcv_lists += steps;
  }
  AA_CHECK(on_rcv_lists == pending_,
           "audit: pending_ counter disagrees with receiver-list population");

  // Straggler map ↔ arena agreement in the other direction: every table
  // entry is a pending id strictly below the direct base, pointing at the
  // slot we just confirmed pending under the matching id.
  AA_CHECK(id_map_.size() == mapped_pending,
           "audit: id map size disagrees with the below-base pending count");
  id_map_.for_each([&](MsgId key, std::uint32_t value) {
    AA_CHECK(static_cast<std::size_t>(value) < cap,
             "audit: id map entry points outside the slot arena");
    AA_CHECK(key < direct_base_,
             "audit: id map entry at or above the direct-index base");
    AA_CHECK(state[value] == 1,
             "audit: id map entry points at a slot not on a receiver list");
    AA_CHECK(meta_[value].id == key,
             "audit: id map key disagrees with the slot's id");
  });

  // Window lists: doubly-linked, acyclic, ascending-id, window-consistent,
  // ids inside the list's recorded range. Pending members must be exactly
  // the receiver-list population; parked members (metadata id cleared, the
  // envelope still carrying the id) must already be out of the live index.
  std::size_t pending_on_win_lists = 0;
  for (std::int64_t w = win_base_;
       w < win_base_ + static_cast<std::int64_t>(win_count_); ++w) {
    const WinList& wl = win_list(w);
    std::int32_t s = wl.head;
    std::int32_t prev = kNoSlot;
    MsgId last_id = kNoMsg;
    std::size_t steps = 0;
    while (s != kNoSlot) {
      AA_CHECK(s >= 0 && static_cast<std::size_t>(s) < cap,
               "audit: window list points outside the slot arena");
      AA_CHECK(++steps <= cap, "audit: window list has a cycle");
      const auto si = static_cast<std::size_t>(s);
      const Envelope& env = envs_[si];
      AA_CHECK(links_[si].prev_win == prev,
               "audit: window list prev link disagrees with walk");
      AA_CHECK(env.id != kNoMsg, "audit: retired slot on a window list");
      AA_CHECK(env.window == w, "audit: slot on the wrong window list");
      AA_CHECK(env.id > last_id,
               "audit: window list ids not strictly ascending");
      AA_CHECK(wl.first_id != kNoMsg && env.id >= wl.first_id &&
                   env.id <= wl.last_id,
               "audit: window list id outside the list's recorded range");
      if (meta_[si].id == kNoMsg) {
        // Parked: off the receiver lists, and its id must no longer
        // resolve (the direct tier disarms via the metadata id; the map
        // tier must have been erased explicitly).
        AA_CHECK(state[si] == 0,
                 "audit: parked slot also reachable from a receiver list");
        if (env.id < direct_base_) {
          AA_CHECK(id_map_.find(env.id) == detail::MsgIdMap::kAbsent,
                   "audit: parked slot's id still resolves in the id map");
        }
        state[si] = 2;
      } else {
        AA_CHECK(meta_[si].id == env.id,
                 "audit: slot metadata id disagrees with its envelope");
        AA_CHECK(state[si] == 1,
                 "audit: window-list slot missing from its receiver list");
        state[si] = 3;
        ++pending_on_win_lists;
      }
      last_id = env.id;
      prev = s;
      s = links_[si].next_win;
    }
    AA_CHECK(wl.tail == prev,
             "audit: window tail does not match the last list element");
  }
  AA_CHECK(pending_on_win_lists == pending_,
           "audit: window lists do not cover the pending population");

  // Free list (linked through next_rcv): acyclic, all members retired in
  // BOTH arrays (a freed slot carries no id anywhere).
  {
    std::int32_t s = free_head_;
    std::size_t steps = 0;
    while (s != kNoSlot) {
      AA_CHECK(s >= 0 && static_cast<std::size_t>(s) < cap,
               "audit: free list points outside the slot arena");
      AA_CHECK(++steps <= cap, "audit: free list has a cycle");
      const auto si = static_cast<std::size_t>(s);
      AA_CHECK(state[si] == 0,
               "audit: free-list slot also reachable from a live list");
      AA_CHECK(meta_[si].id == kNoMsg && envs_[si].id == kNoMsg,
               "audit: free-list slot still carries a live id");
      state[si] = 4;
      s = links_[si].next_rcv;
    }
  }

  // Exactly-one-home: no slot may be leaked (unreachable) or stranded on a
  // receiver list without window membership.
  for (std::size_t i = 0; i < cap; ++i) {
    AA_CHECK(state[i] == 2 || state[i] == 3 || state[i] == 4,
             "audit: slot not in exactly one of pending/parked/free");
  }

  // Lifecycle counters partition the full send history.
  AA_CHECK(pending_ + delivered_ + dropped_ ==
               static_cast<std::size_t>(next_id_),
           "audit: lifecycle counters do not sum to total_sent");
}

// ---- iteration ------------------------------------------------------------

const Envelope& MessageBuffer::PendingIterator::operator*() const {
  return buf_->envs_[static_cast<std::size_t>(cur_)];
}

void MessageBuffer::PendingIterator::skip_non_matching() {
  if (sender_ < 0) return;
  while (cur_ >= 0 &&
         buf_->meta_[static_cast<std::size_t>(cur_)].sender != sender_) {
    cur_ = buf_->links_[static_cast<std::size_t>(cur_)].next_rcv;
  }
}

void MessageBuffer::PendingIterator::prefetch() {
  if (cur_ < 0) {
    next_ = kNoSlot;
    return;
  }
  std::int32_t s = buf_->links_[static_cast<std::size_t>(cur_)].next_rcv;
  if (sender_ >= 0) {
    while (s >= 0 &&
           buf_->meta_[static_cast<std::size_t>(s)].sender != sender_) {
      s = buf_->links_[static_cast<std::size_t>(s)].next_rcv;
    }
  }
  next_ = s;
}

const Envelope& MessageBuffer::WindowIterator::operator*() const {
  return buf_->envs_[static_cast<std::size_t>(cur_)];
}

void MessageBuffer::WindowIterator::advance_to_nonempty_window() {
  const std::int64_t end =
      buf_->win_base_ + static_cast<std::int64_t>(buf_->win_count_);
  if (window_ < buf_->win_base_) window_ = buf_->win_base_ - 1;
  while (cur_ < 0 && ++window_ < end) {
    cur_ = buf_->win_list(window_).head;
    skip_lazy();  // a list of only-parked slots counts as empty
  }
}

void MessageBuffer::WindowIterator::skip_lazy() {
  while (cur_ >= 0 && buf_->meta_[static_cast<std::size_t>(cur_)].id == kNoMsg) {
    cur_ = buf_->links_[static_cast<std::size_t>(cur_)].next_win;
  }
}

void MessageBuffer::WindowIterator::prefetch() {
  std::int32_t s = cur_ < 0 ? kNoSlot
                            : buf_->links_[static_cast<std::size_t>(cur_)]
                                  .next_win;
  while (s >= 0 && buf_->meta_[static_cast<std::size_t>(s)].id == kNoMsg) {
    s = buf_->links_[static_cast<std::size_t>(s)].next_win;
  }
  next_ = s;
}

MessageBuffer::Range<MessageBuffer::PendingIterator> MessageBuffer::pending_to(
    ProcId receiver) const {
  AA_REQUIRE(receiver >= 0 && receiver < n_, "pending_to: bad receiver");
  return {PendingIterator(this, rcv_head_[static_cast<std::size_t>(receiver)],
                          -1),
          PendingIterator(this, kNoSlot, -1)};
}

MessageBuffer::Range<MessageBuffer::PendingIterator>
MessageBuffer::pending_from_to(ProcId sender, ProcId receiver) const {
  AA_REQUIRE(receiver >= 0 && receiver < n_, "pending_from_to: bad receiver");
  AA_REQUIRE(sender >= 0 && sender < n_, "pending_from_to: bad sender");
  return {PendingIterator(this, rcv_head_[static_cast<std::size_t>(receiver)],
                          sender),
          PendingIterator(this, kNoSlot, sender)};
}

MessageBuffer::Range<MessageBuffer::WindowIterator>
MessageBuffer::pending_in_window(std::int64_t w) const {
  std::int32_t head = kNoSlot;
  if (w >= win_base_ && w < win_base_ + static_cast<std::int64_t>(win_count_)) {
    head = win_list(w).head;
  }
  return {WindowIterator(this, head, w, /*all_windows=*/false),
          WindowIterator(this, kNoSlot, w, /*all_windows=*/false)};
}

MessageBuffer::Range<MessageBuffer::WindowIterator> MessageBuffer::all_pending()
    const {
  return {WindowIterator(this, kNoSlot, win_base_ - 1, /*all_windows=*/true),
          WindowIterator(this, kNoSlot,
                         win_base_ + static_cast<std::int64_t>(win_count_),
                         /*all_windows=*/false)};
}

// ---- allocating conveniences ----------------------------------------------

std::vector<MsgId> MessageBuffer::pending_to_ids(ProcId receiver) const {
  std::vector<MsgId> out;
  for (const Envelope& e : pending_to(receiver)) out.push_back(e.id);
  return out;
}

std::vector<MsgId> MessageBuffer::pending_from_to_ids(ProcId sender,
                                                      ProcId receiver) const {
  std::vector<MsgId> out;
  for (const Envelope& e : pending_from_to(sender, receiver))
    out.push_back(e.id);
  return out;
}

std::vector<MsgId> MessageBuffer::pending_in_window_ids(std::int64_t w) const {
  std::vector<MsgId> out;
  for (const Envelope& e : pending_in_window(w)) out.push_back(e.id);
  return out;
}

std::vector<MsgId> MessageBuffer::all_pending_ids() const {
  std::vector<MsgId> out;
  out.reserve(pending_);
  for (const Envelope& e : all_pending()) out.push_back(e.id);
  return out;
}

}  // namespace aa::sim
