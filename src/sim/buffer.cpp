#include "sim/buffer.hpp"

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
  sent_head_ = kNoSlot;
  sent_tail_ = kNoSlot;
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
  if (items.empty()) return first;
  for (const StagedMessage& item : items) {
    AA_REQUIRE(item.to >= 0 && item.to < n_,
               "MessageBuffer::add_batch: bad receiver");
  }
  if (direct_slots_.size() >= kDirectSpillLimit) spill_direct_index();
  // The slot arrays may grow inside the loop, so all links go through
  // indices; the send list's ends are threaded locally and stored once.
  std::int32_t sent_head = sent_head_;
  std::int32_t sent_tail = sent_tail_;
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

    lk.prev_sent = sent_tail;
    lk.next_sent = kNoSlot;
    if (sent_tail != kNoSlot) {
      links_[static_cast<std::size_t>(sent_tail)].next_sent = s;
    } else {
      sent_head = s;
    }
    sent_tail = s;

    direct_slots_.push_back(s);
  }
  sent_head_ = sent_head;
  sent_tail_ = sent_tail;
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

void MessageBuffer::unlink_sent(std::int32_t s) {
  Link& lk = links_[static_cast<std::size_t>(s)];
  if (lk.prev_sent != kNoSlot) {
    links_[static_cast<std::size_t>(lk.prev_sent)].next_sent = lk.next_sent;
  } else {
    sent_head_ = lk.next_sent;
  }
  if (lk.next_sent != kNoSlot) {
    links_[static_cast<std::size_t>(lk.next_sent)].prev_sent = lk.prev_sent;
  } else {
    sent_tail_ = lk.prev_sent;
  }
}

void MessageBuffer::retire(std::int32_t s) {
  const auto si = static_cast<std::size_t>(s);
  unlink_receiver(s);
  unlink_sent(s);
  const MsgId id = meta_[si].id;
  if (id < direct_base_) id_map_.erase(id);
  meta_[si].id = kNoMsg;
  envs_[si].id = kNoMsg;
  links_[si].next_rcv = free_head_;
  free_head_ = s;
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

MsgId MessageBuffer::claim_ids(std::size_t count) {
  AA_REQUIRE(pending_ == 0,
             "MessageBuffer::claim_ids: the arena holds pending messages");
  const MsgId first = next_id_;
  next_id_ += static_cast<MsgId>(count);
  claimed_ += count;
  // Nothing is pending, so every direct-index entry is stale and the
  // straggler map is empty: the index restarts at the new watermark.
  direct_base_ = next_id_;
  direct_slots_.clear();
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
  // 0 = unseen, 1 = on a receiver list (pending, send-list membership not
  // yet confirmed), 2 = pending confirmed on both lists, 3 = on the free
  // list. Every slot must end in {2, 3}.
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
      AA_CHECK(mt.id != kNoMsg, "audit: retired slot on a receiver list");
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

  // Send list: doubly-linked, acyclic, ascending-id, one window, and
  // exactly the receiver-list population.
  std::size_t pending_on_sent_list = 0;
  {
    std::int32_t s = sent_head_;
    std::int32_t prev = kNoSlot;
    MsgId last_id = kNoMsg;
    std::size_t steps = 0;
    while (s != kNoSlot) {
      AA_CHECK(s >= 0 && static_cast<std::size_t>(s) < cap,
               "audit: send list points outside the slot arena");
      AA_CHECK(++steps <= cap, "audit: send list has a cycle");
      const auto si = static_cast<std::size_t>(s);
      const Envelope& env = envs_[si];
      AA_CHECK(links_[si].prev_sent == prev,
               "audit: send list prev link disagrees with walk");
      AA_CHECK(env.id != kNoMsg && meta_[si].id == env.id,
               "audit: retired slot on the send list");
      AA_CHECK(env.window ==
                   envs_[static_cast<std::size_t>(sent_head_)].window,
               "audit: send list holds more than one window");
      AA_CHECK(env.id > last_id, "audit: send list ids not strictly ascending");
      AA_CHECK(state[si] == 1,
               "audit: send-list slot missing from its receiver list");
      state[si] = 2;
      ++pending_on_sent_list;
      last_id = env.id;
      prev = s;
      s = links_[si].next_sent;
    }
    AA_CHECK(sent_tail_ == prev,
             "audit: send list tail does not match the last list element");
  }
  AA_CHECK(pending_on_sent_list == pending_,
           "audit: send list does not cover the pending population");

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
      state[si] = 3;
      s = links_[si].next_rcv;
    }
  }

  // Exactly-one-home: no slot may be leaked (unreachable) or stranded on a
  // receiver list without send-list membership.
  for (std::size_t i = 0; i < cap; ++i) {
    AA_CHECK(state[i] == 2 || state[i] == 3,
             "audit: slot neither pending nor free");
  }

  // Lifecycle counters partition the full send history, claimed ids
  // included.
  AA_CHECK(pending_ + claimed_ + delivered_ + dropped_ ==
               static_cast<std::size_t>(next_id_),
           "audit: lifecycle counters do not sum to total_sent");
}

// ---- iteration ------------------------------------------------------------

const Envelope& MessageBuffer::PendingIterator::operator*() const {
  return buf_->envs_[static_cast<std::size_t>(cur_)];
}

void MessageBuffer::PendingIterator::prefetch() {
  next_ = cur_ < 0 ? kNoSlot
                   : buf_->links_[static_cast<std::size_t>(cur_)].next_rcv;
}

const Envelope& MessageBuffer::SendOrderIterator::operator*() const {
  return buf_->envs_[static_cast<std::size_t>(cur_)];
}

void MessageBuffer::SendOrderIterator::prefetch() {
  next_ = cur_ < 0 ? kNoSlot
                   : buf_->links_[static_cast<std::size_t>(cur_)].next_sent;
}

MessageBuffer::Range<MessageBuffer::PendingIterator> MessageBuffer::pending_to(
    ProcId receiver) const {
  AA_REQUIRE(receiver >= 0 && receiver < n_, "pending_to: bad receiver");
  return {PendingIterator(this, rcv_head_[static_cast<std::size_t>(receiver)]),
          PendingIterator(this, kNoSlot)};
}

MessageBuffer::Range<MessageBuffer::SendOrderIterator>
MessageBuffer::all_pending() const {
  return {SendOrderIterator(this, sent_head_),
          SendOrderIterator(this, kNoSlot)};
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
  for (const Envelope& e : all_pending()) out.push_back(e.id);
  return out;
}

}  // namespace aa::sim
