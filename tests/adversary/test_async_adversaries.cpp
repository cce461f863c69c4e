#include <gtest/gtest.h>

#include <memory>
#include <string>
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
  for (const sim::MsgId id : e.buffer().all_pending_ids()) {
    if (!e.crashed(e.buffer().get(id).receiver)) out.push_back(id);
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

/// A processor that never has a round, so AsyncSplitKeeper skips every
/// receiver and takes its last fallback. Each delivery stages 0-3 sends to
/// random receivers (its own draws, so the run is seed-deterministic).
class Roundless final : public sim::Process {
 public:
  explicit Roundless(int n) : n_(n) {}
  void on_start(sim::Outbox& out) override {
    for (sim::ProcId r = 0; r < n_; ++r) out.send(r, sim::Message{});
  }
  void on_receive(const sim::Envelope& /*env*/, Rng& rng,
                  sim::Outbox& out) override {
    const std::size_t k = rng.uniform_index(4);
    for (std::size_t j = 0; j < k; ++j) {
      out.send(static_cast<sim::ProcId>(
                   rng.uniform_index(static_cast<std::size_t>(n_))),
               sim::Message{});
    }
  }
  void on_reset() override {}
  [[nodiscard]] int input() const override { return 0; }
  [[nodiscard]] int output() const override { return sim::kBot; }
  [[nodiscard]] int round() const override { return sim::kBot; }
  [[nodiscard]] int estimate() const override { return sim::kBot; }
  [[nodiscard]] const char* protocol_name() const override {
    return "roundless";
  }

 private:
  int n_;
};

/// Always asks for the lowest pending delivery from `target` to a live
/// receiver (so a starving wrapper must substitute), else stops.
class PickTarget final : public sim::AsyncAdversary {
 public:
  explicit PickTarget(sim::ProcId target) : target_(target) {}
  void prepare(int /*n*/, int /*t*/) override {}
  sim::AsyncAction next(const Execution& exec) override {
    const sim::MessageBuffer& buf = exec.buffer();
    for (sim::MsgId id = 0; id < static_cast<sim::MsgId>(buf.total_sent());
         ++id) {
      if (!buf.is_pending(id)) continue;
      const sim::Envelope& env = buf.get(id);
      if (env.sender == target_ && !exec.crashed(env.receiver)) {
        return sim::DeliverAction{id};
      }
    }
    return sim::StopAction{};
  }
  [[nodiscard]] std::string name() const override { return "pick-target"; }

 private:
  sim::ProcId target_;
};

// The oldest pending delivery to a live receiver whose sender is not
// `skip_sender`, by brute force over every id ever issued.
sim::MsgId oldest_deliverable(const Execution& e, sim::ProcId skip_sender) {
  const sim::MessageBuffer& buf = e.buffer();
  for (sim::MsgId id = 0; id < static_cast<sim::MsgId>(buf.total_sent());
       ++id) {
    if (!buf.is_pending(id)) continue;
    const sim::Envelope& env = buf.get(id);
    if (!e.crashed(env.receiver) && env.sender != skip_sender) return id;
  }
  return sim::kNoMsg;
}

sim::MsgId delivered_id(const sim::AsyncAction& a) {
  const auto* d = std::get_if<sim::DeliverAction>(&a);
  return d == nullptr ? sim::kNoMsg : d->id;
}

TEST(OldestPendingPicks, MatchBruteForceScanUnderChurn) {
  // StarvingAsyncScheduler's substitute and AsyncSplitKeeper's last
  // fallback both promise the oldest qualifying pending delivery. After
  // every random delivery, substitution and crash, each must equal a scan
  // of ids [0, total_sent).
  const int n = 6;
  const int t = 2;
  const sim::ProcId target = 1;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (int p = 0; p < n; ++p) procs.push_back(std::make_unique<Roundless>(n));
  Execution e(std::move(procs), 17);
  for (sim::ProcId p = 0; p < n; ++p) e.sending_step(p);
  StarvingAsyncScheduler starve(std::make_unique<PickTarget>(target), target,
                                /*fairness_bound=*/1 << 30);
  starve.prepare(n, t);
  AsyncSplitKeeper keeper;  // driven without prepare(), as run by hand
  Rng rng(41);
  int substitutions = 0;
  int fallbacks = 0;
  for (int iter = 0; iter < 600; ++iter) {
    SCOPED_TRACE("iter " + std::to_string(iter));
    const sim::MsgId want_sub = oldest_deliverable(e, target);
    const sim::MsgId want_any = oldest_deliverable(e, -1);
    if (want_any == sim::kNoMsg) break;

    const sim::MsgId inner = delivered_id(PickTarget(target).next(e));
    const sim::MsgId got_sub = delivered_id(starve.next(e));
    if (inner != sim::kNoMsg) {
      // A target pick is always swapped for the oldest non-target one,
      // unless only target traffic is left.
      EXPECT_EQ(got_sub, want_sub == sim::kNoMsg ? inner : want_sub);
      if (want_sub != sim::kNoMsg) ++substitutions;
    }
    const sim::MsgId got_keep = delivered_id(keeper.next(e));
    EXPECT_EQ(got_keep, want_any);
    ++fallbacks;

    // Apply one of: the substitute, the keeper's pick, or a random
    // pending delivery to a live receiver.
    sim::MsgId apply = sim::kNoMsg;
    switch (rng.uniform_index(3)) {
      case 0:
        apply = got_sub;
        break;
      case 1:
        apply = got_keep;
        break;
      default: {
        std::vector<sim::MsgId> live;
        for (sim::MsgId id = 0; id < static_cast<sim::MsgId>(
                                         e.buffer().total_sent());
             ++id) {
          if (e.buffer().is_pending(id) &&
              !e.crashed(e.buffer().get(id).receiver)) {
            live.push_back(id);
          }
        }
        apply = live[rng.uniform_index(live.size())];
      }
    }
    if (apply == sim::kNoMsg) apply = want_any;
    apply_delivery(e, apply);
    if (iter == 90) e.crash(0);  // two crashes, within t; never the target
    if (iter == 310) e.crash(4);
  }
  EXPECT_GT(substitutions, 50);
  EXPECT_GT(fallbacks, 300);
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
