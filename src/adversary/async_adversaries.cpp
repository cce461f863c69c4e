#include "adversary/async_adversaries.hpp"

#include <algorithm>

#include "protocols/reset_agreement.hpp"
#include "util/check.hpp"

namespace aa::adversary {

namespace detail {

void DeliverableSet::sync(const sim::Execution& exec) {
  const sim::MessageBuffer& buf = exec.buffer();
  const std::size_t retired = buf.delivered_count() + buf.dropped_count();
  // A wrapper (e.g. StarvingAsyncScheduler) may substitute a DIFFERENT
  // delivery for our pick: the retire count still advances by one, so the
  // count alone cannot distinguish "my pick applied" from "something else
  // was retired instead". Check the pick itself.
  const bool pick_applied =
      last_taken_ != sim::kNoMsg && !buf.is_pending(last_taken_);
  const std::size_t expected = retired_seen_ + (pick_applied ? 1u : 0u);
  // 1. Drop what was retired since the last sync: normally just our pick,
  //    which run_async applied; after out-of-band retirements (a
  //    substituting wrapper, another driver) every id no longer pending —
  //    one pass over the list, never a walk of the buffer.
  if (retired != expected) {
    std::erase_if(ids_, [&buf](sim::MsgId id) { return !buf.is_pending(id); });
  } else if (pick_applied) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), last_taken_);
    if (it != ids_.end() && *it == last_taken_) ids_.erase(it);
  }
  last_taken_ = sim::kNoMsg;
  // 2. A crash since the last sync makes some queued entries
  //    undeliverable; purge them (rare — at most t times per run).
  if (exec.crashed_count() != crash_count_seen_) {
    std::erase_if(ids_, [&exec](sim::MsgId id) {
      return exec.crashed(exec.buffer().get(id).receiver);
    });
    crash_count_seen_ = exec.crashed_count();
  }
  // 3. Ingest everything published since the last sync: ids in
  //    [ingested_upto_, total_sent) are exactly the batches the receiving
  //    steps' responses published. Appending keeps the list ascending —
  //    bit-identical, entry for entry, to a full rescan of the buffer.
  const auto sent = static_cast<sim::MsgId>(buf.total_sent());
  for (sim::MsgId id = ingested_upto_; id < sent; ++id) {
    if (!exec.crashed(buf.get(id).receiver)) ids_.push_back(id);
  }
  ingested_upto_ = sent;
  retired_seen_ = retired;
}

}  // namespace detail

void RandomAsyncScheduler::prepare(int /*n*/, int /*t*/) {
  deliverable_.reset();
}

sim::AsyncAction RandomAsyncScheduler::next(const sim::Execution& exec) {
  deliverable_.sync(exec);
  if (deliverable_.empty()) return sim::StopAction{};
  return sim::DeliverAction{
      deliverable_.take(rng_.uniform_index(deliverable_.size()))};
}

void FixedCrashScheduler::prepare(int /*n*/, int t) {
  AA_REQUIRE(static_cast<int>(to_crash_.size()) <= t,
             "fixed-crash scheduler: crash list exceeds the budget t");
  crashed_so_far_ = 0;
  deliverable_.reset();
}

sim::AsyncAction FixedCrashScheduler::next(const sim::Execution& exec) {
  if (crashed_so_far_ < to_crash_.size()) {
    return sim::CrashAction{to_crash_[crashed_so_far_++]};
  }
  deliverable_.sync(exec);
  if (deliverable_.empty()) return sim::StopAction{};
  return sim::DeliverAction{
      deliverable_.take(rng_.uniform_index(deliverable_.size()))};
}

void AsyncSplitKeeper::prepare(int n, int /*t*/) {
  delivered_.assign(static_cast<std::size_t>(n), RoundVotes{});
}

sim::AsyncAction AsyncSplitKeeper::next(const sim::Execution& exec) {
  const int n = exec.n();
  // Sized here too: a keeper may be driven without prepare().
  if (delivered_.size() != static_cast<std::size_t>(n)) {
    delivered_.assign(static_cast<std::size_t>(n), RoundVotes{});
  }
  // For each receiver, partition its pending CURRENT-round votes by value
  // and pick the value that keeps the receiver's consumed prefix balanced:
  // deliver the value it has seen FEWER of (tie → the value with more
  // pending, so the scarce value is stretched across the prefix). This is
  // exactly the window-model balance_votes ordering, streamed.
  //
  // Among receivers, serve the one with the most pending current-round
  // votes (keeps the system in loose lockstep).
  fallback_.clear();
  sim::MsgId best = sim::kNoMsg;
  std::size_t best_pending = 0;

  for (sim::ProcId i = 0; i < n; ++i) {
    if (exec.crashed(i)) continue;
    const int r = exec.process(i).round();
    if (r == sim::kBot) continue;
    byval_[0].clear();
    byval_[1].clear();
    for (const sim::Envelope& env : exec.buffer().pending_to(i)) {
      if (env.payload.kind != protocols::kVoteKind ||
          env.payload.round != r ||
          (env.payload.value != 0 && env.payload.value != 1)) {
        // Stale/future/non-vote: deliverable any time without affecting the
        // current round's balance (eventual-delivery obligation).
        fallback_.push_back(env.id);
        continue;
      }
      byval_[static_cast<std::size_t>(env.payload.value)].push_back(env.id);
    }
    const std::size_t pending_here = byval_[0].size() + byval_[1].size();
    if (pending_here == 0 || pending_here <= best_pending) continue;
    const RoundVotes& votes = delivered_[static_cast<std::size_t>(i)];
    const std::array<int, 2> seen =
        votes.round == r ? votes.count : std::array<int, 2>{0, 0};
    std::size_t pick;
    if (byval_[0].empty()) pick = 1;
    else if (byval_[1].empty()) pick = 0;
    else if (seen[0] != seen[1]) pick = seen[0] < seen[1] ? 0 : 1;
    else pick = byval_[0].size() >= byval_[1].size() ? 0 : 1;
    best_pending = pending_here;
    best = byval_[pick].front();
  }
  if (best != sim::kNoMsg) {
    const sim::Envelope& env = exec.buffer().get(best);
    RoundVotes& votes = delivered_[static_cast<std::size_t>(env.receiver)];
    if (votes.round != env.payload.round) {
      votes = RoundVotes{env.payload.round, {0, 0}};
    }
    ++votes.count[static_cast<std::size_t>(env.payload.value)];
    return sim::DeliverAction{best};
  }
  // No current-round votes anywhere: drain the obligations in send order.
  if (!fallback_.empty()) return sim::DeliverAction{fallback_.front()};
  // Only receivers without a round can still hold pending messages: take
  // the oldest, the lowest head over the live receivers' lists.
  sim::MsgId oldest = sim::kNoMsg;
  for (sim::ProcId i = 0; i < n; ++i) {
    if (exec.crashed(i)) continue;
    const auto pending = exec.buffer().pending_to(i);
    if (pending.empty()) continue;
    const sim::MsgId head = (*pending.begin()).id;
    if (oldest == sim::kNoMsg || head < oldest) oldest = head;
  }
  if (oldest != sim::kNoMsg) return sim::DeliverAction{oldest};
  return sim::StopAction{};
}

}  // namespace aa::adversary
