#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"
#include "util/rng.hpp"

namespace aa::adversary {
namespace {

using protocols::ProtocolKind;
using sim::Execution;

TEST(RandomAsyncScheduler, StopsWhenNothingPending) {
  Execution e(protocols::make_processes(ProtocolKind::BenOr, 1,
                                        protocols::split_inputs(4, 0.5)),
              1);
  // No sending steps yet → nothing pending.
  RandomAsyncScheduler sched(Rng(1));
  const sim::AsyncAction a = sched.next(e);
  EXPECT_TRUE(std::holds_alternative<sim::StopAction>(a));
}

TEST(RandomAsyncScheduler, DeliversOnlyPendingToLive) {
  Execution e(protocols::make_processes(ProtocolKind::BenOr, 1,
                                        protocols::split_inputs(4, 0.5)),
              1);
  for (int p = 0; p < 4; ++p) e.sending_step(p);
  e.crash(2);
  RandomAsyncScheduler sched(Rng(2));
  for (int i = 0; i < 30; ++i) {
    const sim::AsyncAction a = sched.next(e);
    if (const auto* d = std::get_if<sim::DeliverAction>(&a)) {
      EXPECT_NE(e.buffer().get(d->id).receiver, 2);
      EXPECT_TRUE(e.buffer().is_pending(d->id));
    }
  }
}

TEST(FixedCrashScheduler, CrashesFirstThenDelivers) {
  Execution e(protocols::make_processes(ProtocolKind::BenOr, 2,
                                        protocols::split_inputs(6, 0.5)),
              1);
  for (int p = 0; p < 6; ++p) e.sending_step(p);
  FixedCrashScheduler sched({1, 4}, Rng(3));
  const auto a1 = sched.next(e);
  ASSERT_TRUE(std::holds_alternative<sim::CrashAction>(a1));
  EXPECT_EQ(std::get<sim::CrashAction>(a1).p, 1);
  e.crash(1);
  const auto a2 = sched.next(e);
  ASSERT_TRUE(std::holds_alternative<sim::CrashAction>(a2));
  EXPECT_EQ(std::get<sim::CrashAction>(a2).p, 4);
  e.crash(4);
  const auto a3 = sched.next(e);
  EXPECT_TRUE(std::holds_alternative<sim::DeliverAction>(a3));
}

// The list DeliverableSet must equal after every sync: pending messages to
// live receivers, ascending id — exactly the fallback's full rescan.
std::vector<sim::MsgId> full_rescan(const Execution& e) {
  std::vector<sim::MsgId> out;
  for (const sim::Envelope& env : e.buffer().all_pending()) {
    if (!e.crashed(env.receiver)) out.push_back(env.id);
  }
  return out;
}

// Deliver `id` the way run_async does: receiving step, then publish the
// receiver's staged responses immediately (§5 atomic receive+send).
void apply_delivery(Execution& e, sim::MsgId id) {
  const sim::ProcId receiver = e.buffer().get(id).receiver;
  e.receiving_step(id);
  e.sending_step(receiver);
}

TEST(DeliverableSet, StackedWrapperChurnNeverDesyncsFromRescan) {
  // Regression test for the incremental cache under STACKED plan-mutating
  // wrappers: between two syncs the scheduler's pick may be (a) applied,
  // (b) ignored while a substitute is delivered instead, (c) applied AND a
  // second out-of-band delivery retired in the same gap (substitution +
  // out-of-band retirement between the same pair of syncs), or (d) ignored
  // while TWO out-of-band deliveries retire. Each delivery also publishes
  // fresh responses, and crashes land mid-stream. After every combination
  // the synced list must be byte-for-byte the full rescan — and no stale
  // retired id may linger in the cache, where the next crash purge's
  // buffer lookup would blow up on it.
  const int n = 8;
  const int t = 2;
  Execution e(protocols::make_processes(ProtocolKind::BenOr, t,
                                        protocols::split_inputs(n, 0.5)),
              11);
  for (int p = 0; p < n; ++p) e.sending_step(p);
  detail::DeliverableSet ds;
  ds.reset();
  Rng rng(99);
  int applied = 0;
  for (int iter = 0; iter < 400; ++iter) {
    ASSERT_NO_THROW(ds.sync(e)) << "iter " << iter;
    ASSERT_EQ(ds.ids(), full_rescan(e)) << "iter " << iter;
    if (ds.empty()) break;
    const sim::MsgId pick = ds.take(rng.uniform_index(ds.size()));
    // A non-pick pending id, when the wrapper needs a substitute.
    const auto substitute = [&]() -> sim::MsgId {
      for (const sim::MsgId id : full_rescan(e)) {
        if (id != pick) return id;
      }
      return sim::kNoMsg;
    };
    switch (iter % 4) {
      case 0: {  // pick passes through every wrapper
        apply_delivery(e, pick);
        ++applied;
        break;
      }
      case 1: {  // wrapper substitutes; pick stays pending
        const sim::MsgId sub = substitute();
        apply_delivery(e, sub == sim::kNoMsg ? pick : sub);
        break;
      }
      case 2: {  // substitution + the pick ALSO retired out-of-band
        const sim::MsgId sub = substitute();
        if (sub != sim::kNoMsg) apply_delivery(e, sub);
        if (e.buffer().is_pending(pick)) apply_delivery(e, pick);
        break;
      }
      case 3: {  // two out-of-band retirements, pick untouched
        for (int k = 0; k < 2; ++k) {
          const sim::MsgId sub = substitute();
          if (sub != sim::kNoMsg) apply_delivery(e, sub);
        }
        break;
      }
    }
    if (iter == 37 || iter == 149) {
      e.crash(static_cast<sim::ProcId>(iter % n));  // within the t budget
    }
  }
  EXPECT_GT(applied, 0);
}

TEST(DeliverableSet, StackedStarvingWrappersEndToEnd) {
  // Two StarvingAsyncSchedulers stacked on a RandomAsyncScheduler: both
  // layers substitute deliveries the inner cache never issued, in the same
  // run, with different targets. The run must complete without the cache
  // ever handing run_async a dead id (receiving_step would throw) and
  // without the crash purge tripping on a stale entry.
  const int n = 8;
  const int t = 1;
  Execution e(protocols::make_processes(ProtocolKind::BenOr, t,
                                        protocols::split_inputs(n, 0.5)),
              7);
  auto inner = std::make_unique<RandomAsyncScheduler>(Rng(5));
  auto mid = std::make_unique<StarvingAsyncScheduler>(std::move(inner),
                                                      /*target=*/0,
                                                      /*fairness_bound=*/3);
  StarvingAsyncScheduler outer(std::move(mid), /*target=*/1,
                               /*fairness_bound=*/2);
  sim::AsyncRunResult r{};
  ASSERT_NO_THROW(r = sim::run_async(e, outer, t, 4000));
  EXPECT_GT(r.deliveries, 0);
}

TEST(AsyncSplitKeeper, DeliversCurrentRoundVotesFirst) {
  const int n = 16;
  const int t = 2;
  Execution e(
      protocols::make_processes(ProtocolKind::Forgetful, t,
                                protocols::split_inputs(n, 0.5)),
      1);
  for (int p = 0; p < n; ++p) e.sending_step(p);
  AsyncSplitKeeper keeper;
  const sim::AsyncAction a = keeper.next(e);
  ASSERT_TRUE(std::holds_alternative<sim::DeliverAction>(a));
  const auto& env = e.buffer().get(std::get<sim::DeliverAction>(a).id);
  EXPECT_EQ(env.payload.round, 1);
}

TEST(AsyncSplitKeeper, KeepsDeliveredPrefixBalanced) {
  const int n = 16;
  const int t = 2;
  Execution e(
      protocols::make_processes(ProtocolKind::Forgetful, t,
                                protocols::split_inputs(n, 0.5)),
      2);
  for (int p = 0; p < n; ++p) e.sending_step(p);
  AsyncSplitKeeper keeper;
  // Deliver the first 8 scheduled messages and check the per-receiver
  // value balance never exceeds 1 while both values remain available.
  std::vector<std::array<int, 2>> delivered(
      static_cast<std::size_t>(n), {0, 0});
  for (int step = 0; step < 8; ++step) {
    const sim::AsyncAction a = keeper.next(e);
    ASSERT_TRUE(std::holds_alternative<sim::DeliverAction>(a));
    const sim::MsgId id = std::get<sim::DeliverAction>(a).id;
    const auto& env = e.buffer().get(id);
    ASSERT_TRUE(env.payload.value == 0 || env.payload.value == 1);
    auto& d = delivered[static_cast<std::size_t>(env.receiver)];
    ++d[static_cast<std::size_t>(env.payload.value)];
    EXPECT_LE(std::abs(d[0] - d[1]), 1)
        << "receiver " << env.receiver << " unbalanced at step " << step;
    e.receiving_step(id);
    e.sending_step(env.receiver);
  }
}

TEST(AsyncSplitKeeper, StopsOnlyWhenTrulyEmpty) {
  Execution e(protocols::make_processes(ProtocolKind::Forgetful, 1,
                                        protocols::split_inputs(8, 0.5)),
              3);
  AsyncSplitKeeper keeper;
  // Nothing published yet.
  EXPECT_TRUE(std::holds_alternative<sim::StopAction>(keeper.next(e)));
  for (int p = 0; p < 8; ++p) e.sending_step(p);
  EXPECT_TRUE(std::holds_alternative<sim::DeliverAction>(keeper.next(e)));
}

TEST(AsyncSplitKeeper, EndToEndStallsSplitInputs) {
  const int n = 16;
  const int t = 2;
  Execution e(
      protocols::make_processes(ProtocolKind::Forgetful, t,
                                protocols::split_inputs(n, 0.5)),
      5);
  AsyncSplitKeeper keeper;
  const auto r = sim::run_async(e, keeper, t, 4 * n * n);
  // Either stalled (step limit) or, rarely, the coins aligned.
  if (r.hit_step_limit) {
    EXPECT_EQ(e.decided_count(), 0);
  }
  SUCCEED();
}

}  // namespace
}  // namespace aa::adversary
