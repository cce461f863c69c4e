#include "sim/buffer.hpp"

#include <algorithm>

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
}

void MessageBuffer::reset(int n) {
  AA_REQUIRE(n > 0, "MessageBuffer::reset: n must be positive");
  n_ = n;
  // Capacities kept everywhere; slots re-materialize allocation-free.
  slots_.clear();
  free_head_ = kNoSlot;
  id_map_.clear();
  next_id_ = 0;
  rcv_head_.assign(static_cast<std::size_t>(n), kNoSlot);
  rcv_tail_.assign(static_cast<std::size_t>(n), kNoSlot);
  pending_ = 0;
  claimed_ = 0;
  delivered_ = 0;
  dropped_ = 0;
}

MsgId MessageBuffer::add_batch(ProcId sender,
                               std::span<const StagedMessage> items,
                               std::int64_t window, std::int64_t chain) {
  AA_REQUIRE(sender >= 0 && sender < n_, "MessageBuffer::add_batch: bad sender");
  const MsgId first = next_id_;
  for (const StagedMessage& item : items) {
    AA_REQUIRE(item.to >= 0 && item.to < n_,
               "MessageBuffer::add_batch: bad receiver");
  }
  // The slot array may grow inside the loop, so all links go through
  // indices.
  for (const StagedMessage& item : items) {
    const MsgId id = next_id_++;
    std::int32_t s;
    if (free_head_ != kNoSlot) {
      s = free_head_;
      free_head_ = slots_[static_cast<std::size_t>(s)].link.next_rcv;
    } else {
      s = static_cast<std::int32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    slot.env = Envelope{id, sender, item.to, item.msg, window, chain};
    Link& lk = slot.link;

    // Append to the receiver list (staging order is ascending-id order).
    lk.prev_rcv = rcv_tail_[static_cast<std::size_t>(item.to)];
    lk.next_rcv = kNoSlot;
    if (lk.prev_rcv != kNoSlot) {
      slots_[static_cast<std::size_t>(lk.prev_rcv)].link.next_rcv = s;
    } else {
      rcv_head_[static_cast<std::size_t>(item.to)] = s;
    }
    rcv_tail_[static_cast<std::size_t>(item.to)] = s;

    id_map_.insert(id, static_cast<std::uint32_t>(s));
  }
  pending_ += items.size();
  return first;
}

std::int32_t MessageBuffer::slot_of(MsgId id) const {
  AA_REQUIRE(id >= 0 && id < next_id_, "MessageBuffer: bad id");
  const std::uint32_t s = id_map_.find(id);
  return s == MsgIdMap::kAbsent ? kNoSlot : static_cast<std::int32_t>(s);
}

const Envelope& MessageBuffer::get(MsgId id) const {
  const std::int32_t s = slot_of(id);
  AA_CHECK(s != kNoSlot, "MessageBuffer::get: id already retired");
  return slots_[static_cast<std::size_t>(s)].env;
}

bool MessageBuffer::is_pending(MsgId id) const {
  return slot_of(id) != kNoSlot;
}

void MessageBuffer::retire(std::int32_t s) {
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  const Link lk = slot.link;
  const ProcId r = slot.env.receiver;
  if (lk.prev_rcv != kNoSlot) {
    slots_[static_cast<std::size_t>(lk.prev_rcv)].link.next_rcv = lk.next_rcv;
  } else {
    rcv_head_[static_cast<std::size_t>(r)] = lk.next_rcv;
  }
  if (lk.next_rcv != kNoSlot) {
    slots_[static_cast<std::size_t>(lk.next_rcv)].link.prev_rcv = lk.prev_rcv;
  } else {
    rcv_tail_[static_cast<std::size_t>(r)] = lk.prev_rcv;
  }
  id_map_.erase(slot.env.id);
  slot.env.id = kNoMsg;
  slot.link.next_rcv = free_head_;
  free_head_ = s;
}

void MessageBuffer::mark_delivered(MsgId id) {
  const std::int32_t s = slot_of(id);
  AA_CHECK(s != kNoSlot, "mark_delivered: message not pending");
  retire(s);
  --pending_;
  ++delivered_;
}

MsgId MessageBuffer::claim_ids(std::size_t count) {
  AA_REQUIRE(pending_ == 0,
             "MessageBuffer::claim_ids: the arena holds pending messages");
  const MsgId first = next_id_;
  next_id_ += static_cast<MsgId>(count);
  claimed_ += count;
  return first;
}

void MessageBuffer::retire_claimed(std::size_t delivered, std::size_t dropped) {
  AA_CHECK(delivered + dropped <= claimed_,
           "MessageBuffer::retire_claimed: more than was claimed");
  claimed_ -= delivered + dropped;
  delivered_ += delivered;
  dropped_ += dropped;
}

// ---- invariant auditor -----------------------------------------------------

void MessageBuffer::audit() const {
  // Per-slot lifecycle classification discovered by walking the structures:
  // 0 = unseen, 1 = on a receiver list (pending), 2 = on the free list.
  // Every slot must end in {1, 2}.
  const std::size_t cap = slots_.size();
  std::vector<std::uint8_t> state(cap, 0);

  // Receiver lists: doubly-linked, acyclic, ascending-id, field-consistent,
  // one window across all of them, and every member resolves through the
  // id map back to its own slot.
  std::size_t on_rcv_lists = 0;
  const Envelope* first_seen = nullptr;
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
      const Envelope& env = slots_[si].env;
      AA_CHECK(slots_[si].link.prev_rcv == prev,
               "audit: receiver list prev link disagrees with walk");
      AA_CHECK(env.id != kNoMsg, "audit: retired slot on a receiver list");
      AA_CHECK(env.id < next_id_,
               "audit: slot id beyond the issued-id watermark");
      AA_CHECK(env.receiver == r, "audit: slot on the wrong receiver list");
      AA_CHECK(env.sender >= 0 && env.sender < n_,
               "audit: slot sender outside [0, n)");
      AA_CHECK(env.id > last_id,
               "audit: receiver list ids not strictly ascending");
      if (first_seen == nullptr) first_seen = &env;
      AA_CHECK(env.window == first_seen->window,
               "audit: pending messages span more than one window");
      AA_CHECK(id_map_.find(env.id) == static_cast<std::uint32_t>(s),
               "audit: id map does not resolve a pending id to its slot");
      AA_CHECK(state[si] == 0, "audit: slot reachable from two receiver lists");
      state[si] = 1;
      last_id = env.id;
      prev = s;
      s = slots_[si].link.next_rcv;
    }
    AA_CHECK(rcv_tail_[static_cast<std::size_t>(r)] == prev,
             "audit: receiver tail does not match the last list element");
    on_rcv_lists += steps;
  }
  AA_CHECK(on_rcv_lists == pending_,
           "audit: pending_ counter disagrees with receiver-list population");
  // Every pending id resolved to its own slot above, so no two slots share
  // an id, and a map of exactly that size holds nothing else.
  AA_CHECK(id_map_.size() == pending_,
           "audit: id map size disagrees with the pending count");

  // Free list (linked through next_rcv): acyclic, all members retired.
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
      AA_CHECK(slots_[si].env.id == kNoMsg,
               "audit: free-list slot still carries a live id");
      state[si] = 2;
      s = slots_[si].link.next_rcv;
    }
  }

  // Exactly-one-home: no slot may be leaked (unreachable).
  for (std::size_t i = 0; i < cap; ++i) {
    AA_CHECK(state[i] == 1 || state[i] == 2,
             "audit: slot neither pending nor free");
  }

  // Lifecycle counters partition the full send history, claimed ids
  // included.
  AA_CHECK(pending_ + claimed_ + delivered_ + dropped_ ==
               static_cast<std::size_t>(next_id_),
           "audit: lifecycle counters do not sum to total_sent");
}

// ---- iteration ------------------------------------------------------------

MessageBuffer::Range MessageBuffer::pending_to(ProcId receiver) const {
  AA_REQUIRE(receiver >= 0 && receiver < n_, "pending_to: bad receiver");
  return {PendingIterator(slots_.data(),
                          rcv_head_[static_cast<std::size_t>(receiver)]),
          PendingIterator(slots_.data(), kNoSlot)};
}

// ---- allocating conveniences ----------------------------------------------

std::vector<MsgId> MessageBuffer::pending_to_ids(ProcId receiver) const {
  std::vector<MsgId> out;
  for (const Envelope& e : pending_to(receiver)) out.push_back(e.id);
  return out;
}

std::vector<MsgId> MessageBuffer::all_pending_ids() const {
  std::vector<MsgId> out;
  out.reserve(pending_);
  for (ProcId r = 0; r < n_; ++r) {
    for (const Envelope& e : pending_to(r)) out.push_back(e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aa::sim
