#include <gtest/gtest.h>

#include <climits>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "protocols/forgetful.hpp"
#include "protocols/reset_agreement.hpp"
#include "sim/async.hpp"
#include "sim/window.hpp"

namespace aa::protocols {
namespace {

using sim::Execution;
using sim::kBot;

TEST(ForgetfulThresholds, DefaultsSatisfyShape) {
  for (int n : {9, 16, 25, 33}) {
    for (int t = 0; 4 * t + 4 <= n; ++t) {
      const Thresholds th = forgetful_thresholds(n, t);
      EXPECT_EQ(th.t1, n - t);
      EXPECT_GT(2 * th.t3, n);
      EXPECT_GE(th.t2, th.t3 + t);
      EXPECT_LE(th.t2, th.t1) << "n=" << n << " t=" << t;
    }
  }
}

TEST(ForgetfulThresholds, CanonicalShapeForSmallT) {
  const Thresholds th = forgetful_thresholds(20, 2);
  EXPECT_EQ(th.t1, 18);
  EXPECT_EQ(th.t2, 16);
  EXPECT_EQ(th.t3, 14);
}

TEST(Forgetful, ConstructionValidation) {
  EXPECT_NO_THROW(ForgetfulProcess(0, 16, 1, forgetful_thresholds(16, 2)));
  // 2*T3 <= n rejected.
  EXPECT_THROW(ForgetfulProcess(0, 16, 1, Thresholds{14, 10, 8}),
               std::invalid_argument);
  EXPECT_THROW(ForgetfulProcess(0, 16, 2, forgetful_thresholds(16, 2)),
               std::invalid_argument);  // input must be a bit
}

TEST(Forgetful, StaleRoundVotesAreInvisible) {
  // Forgetfulness: messages from rounds before the current one are ignored.
  const int n = 16;
  const int t = 2;
  const Thresholds th = forgetful_thresholds(n, t);
  ForgetfulProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  // Advance to round 2 with T1 unanimous round-1 votes.
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_vote(1, 0);
    p.on_receive(env, rng, out);
  }
  ASSERT_EQ(p.round(), 2);
  out.clear();
  // Now shower it with round-1 votes: nothing may happen.
  for (int s = 0; s < n; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_vote(1, 1);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.round(), 2);
  EXPECT_TRUE(out.empty());
}

TEST(Forgetful, FullyCommunicative) {
  // Definition 16: upon hearing n − t, send to ALL n.
  const int n = 16;
  const int t = 2;
  const Thresholds th = forgetful_thresholds(n, t);
  ForgetfulProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < n - t; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_vote(1, s % 2);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));
}

TEST(Forgetful, DecidesAtT2) {
  const int n = 16;
  const int t = 2;
  const Thresholds th = forgetful_thresholds(n, t);  // T1=14 T2=12 T3=10
  ForgetfulProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_vote(1, s < th.t2 ? 1 : 0);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.output(), 1);
}

TEST(Forgetful, AdoptsAtT3WithoutDeciding) {
  const int n = 16;
  const int t = 2;
  const Thresholds th = forgetful_thresholds(n, t);
  ForgetfulProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  // Exactly T3 ones, rest zeros (zeros = T1 − T3 = 5 < T3): adopt 1.
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_vote(1, s < th.t3 ? 1 : 0);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.output(), kBot);
  EXPECT_EQ(p.estimate(), 1);
}

TEST(Forgetful, EndToEndAsyncRandomSchedulerAgrees) {
  const int n = 16;
  const int t = 2;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Execution e(
        make_processes(ProtocolKind::Forgetful, t, split_inputs(n, 0.5)),
        seed);
    adversary::RandomAsyncScheduler sched(Rng(seed * 131));
    sim::run_async(e, sched, t, 5'000'000, /*until_all=*/true);
    EXPECT_TRUE(e.all_live_decided()) << "seed=" << seed;
    EXPECT_TRUE(e.outputs_agree()) << "seed=" << seed;
  }
}

TEST(Forgetful, SurvivesCrashes) {
  const int n = 16;
  const int t = 2;
  Execution e(make_processes(ProtocolKind::Forgetful, t, split_inputs(n, 0.5)),
              5);
  adversary::FixedCrashScheduler sched({3, 8}, Rng(7));
  sim::run_async(e, sched, t, 5'000'000, /*until_all=*/true);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
}

TEST(Forgetful, SplitKeeperStallsProgress) {
  // Theorem 17's mechanism: the balanced scheduler forces coin flips.
  // Over a short horizon, a split input under the split-keeper should
  // almost never decide (whereas a fair random scheduler often does).
  const int n = 20;
  const int t = 2;
  int keeper_decided = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Execution e(
        make_processes(ProtocolKind::Forgetful, t, split_inputs(n, 0.5)),
        seed);
    adversary::AsyncSplitKeeper keeper;
    // Horizon: 6 full rounds' worth of deliveries.
    sim::run_async(e, keeper, t, 6 * n * n);
    if (e.decided_count() > 0) ++keeper_decided;
  }
  EXPECT_LE(keeper_decided, 2);  // mostly stalled
}

TEST(Forgetful, UnanimousDecidesDespiteSplitKeeper) {
  const int n = 16;
  const int t = 2;
  Execution e(
      make_processes(ProtocolKind::Forgetful, t, unanimous_inputs(n, 1)), 3);
  adversary::AsyncSplitKeeper keeper;
  sim::run_async(e, keeper, t, 4 * n * n);
  EXPECT_GT(e.decided_count(), 0);
  EXPECT_EQ(e.first_decision()->value, 1);
}

TEST(ForgetfulMemory, HorizonNearIntMaxDecidesLikeUnbounded) {
  // memory_k = INT_MAX is a horizon no round reaches, so it must run
  // exactly like memory_k = 0. The horizon test once added memory_k to the
  // round, which overflowed here and dropped every vote.
  const int n = 7;
  const int t = 1;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<int> outputs[2];
    std::int64_t windows[2] = {0, 0};
    const int ks[2] = {0, INT_MAX};
    for (int i = 0; i < 2; ++i) {
      Execution e(make_processes(ProtocolKind::Forgetful, t,
                                 split_inputs(n, 0.5), std::nullopt, ks[i]),
                  seed);
      adversary::FairWindowAdversary fair;
      windows[i] = sim::run_until_all_decided(e, fair, t, 20);
      for (int p = 0; p < n; ++p) outputs[i].push_back(e.output(p));
    }
    EXPECT_EQ(outputs[1], outputs[0]) << "seed=" << seed;
    EXPECT_EQ(windows[1], windows[0]) << "seed=" << seed;
    EXPECT_LT(windows[0], 20) << "seed=" << seed;  // every processor decided
  }
}

TEST(Forgetful, WorksUnderWindowModelToo) {
  // The forgetful protocol with T1 = n − t also runs under acceptable
  // windows (it is a §3-style algorithm without reset handling).
  const int n = 16;
  const int t = 2;
  Execution e(make_processes(ProtocolKind::Forgetful, t, split_inputs(n, 0.5)),
              9);
  adversary::FairWindowAdversary fair;
  const auto windows = sim::run_until_all_decided(e, fair, t, 100000);
  EXPECT_LT(windows, 100000);
  EXPECT_TRUE(e.outputs_agree());
}

}  // namespace
}  // namespace aa::protocols
