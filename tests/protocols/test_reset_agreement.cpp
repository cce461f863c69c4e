#include <gtest/gtest.h>

#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "protocols/reset_agreement.hpp"
#include "sim/window.hpp"

namespace aa::protocols {
namespace {

using sim::Execution;
using sim::kBot;

Execution make_exec(int t, const std::vector<int>& inputs,
                    std::uint64_t seed) {
  return Execution(make_processes(ProtocolKind::Reset, t, inputs), seed);
}

TEST(ResetProcess, ConstructionValidation) {
  EXPECT_THROW(ResetProcess(0, 4, 2, {3, 3, 2}), std::invalid_argument);
  EXPECT_THROW(ResetProcess(4, 4, 1, {3, 3, 2}), std::invalid_argument);
  EXPECT_THROW(ResetProcess(0, 4, 1, {3, 2, 3}), std::invalid_argument);
  // 2*T3 <= T1 is ambiguous.
  EXPECT_THROW(ResetProcess(0, 8, 1, {6, 4, 3}), std::invalid_argument);
}

TEST(ResetProcess, InitialStateMatchesPaper) {
  ResetProcess p(2, 12, 1, canonical_thresholds(12, 1));
  EXPECT_EQ(p.input(), 1);
  EXPECT_EQ(p.output(), kBot);
  EXPECT_EQ(p.round(), 1);
  EXPECT_EQ(p.estimate(), 1);
  EXPECT_FALSE(p.rejoining());
}

TEST(ResetProcess, StartBroadcastsRoundOneVote) {
  ResetProcess p(0, 4, 1, {2, 2, 2});  // legal standalone thresholds
  sim::Outbox out(4);
  p.on_start(out);
  ASSERT_EQ(out.message_count(), 4u);
  for (const auto& item : out.items()) {
    EXPECT_EQ(item.to, sim::kEveryone);  // one item per broadcast
    EXPECT_EQ(item.msg.kind, kVoteKind);
    EXPECT_EQ(item.msg.round, 1);
    EXPECT_EQ(item.msg.value, 1);
  }
}

TEST(ResetProcess, UnanimousDecidesFirstWindow) {
  const int n = 12;
  const int t = 1;
  for (int v = 0; v <= 1; ++v) {
    Execution e = make_exec(t, unanimous_inputs(n, v), 1);
    adversary::FairWindowAdversary fair;
    sim::run_acceptable_window(e, fair, t);
    EXPECT_EQ(e.decided_count(), n);
    for (int p = 0; p < n; ++p) EXPECT_EQ(e.output(p), v);
  }
}

TEST(ResetProcess, IgnoresNonVoteAndMalformedMessages) {
  const int n = 12;
  const int t = 1;
  Execution e = make_exec(t, unanimous_inputs(n, 1), 1);
  // Inject garbage through a custom adversary? Simpler: direct unit probe.
  ResetProcess p(0, n, 1, canonical_thresholds(n, t));
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 1;
  env.receiver = 0;
  env.payload.kind = 99;  // unknown kind
  p.on_receive(env, rng, out);
  env.payload.kind = kVoteKind;
  env.payload.value = 7;  // not a bit
  p.on_receive(env, rng, out);
  EXPECT_EQ(p.round(), 1);  // unmoved
  EXPECT_TRUE(out.empty());
}

TEST(ResetProcess, AdvancesRoundAfterT1Votes) {
  const int n = 12;
  const int t = 1;
  const Thresholds th = canonical_thresholds(n, t);  // T1 = 10
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 1; s <= th.t1; ++s) {
    sim::Envelope env;
    env.sender = s % n;
    env.receiver = 0;
    env.payload = make_vote(1, 0);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.round(), 2);
  EXPECT_EQ(p.output(), 0);  // T2 = 10 unanimous zeros → decide 0
  EXPECT_EQ(p.estimate(), 0);
  // Staged the round-2 broadcast.
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));
  EXPECT_EQ(out.items().front().msg.round, 2);
}

TEST(ResetProcess, T3MetWithoutT2AdoptsWithoutDeciding) {
  const int n = 12;
  const int t = 1;
  const Thresholds th = canonical_thresholds(n, t);  // T1=T2=10, T3=9
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  // 9 ones + 1 zero: T3=9 ones met, T2=10 not met.
  for (int s = 0; s < 9; ++s) {
    sim::Envelope env;
    env.sender = s + 1;
    env.receiver = 0;
    env.payload = make_vote(1, 1);
    p.on_receive(env, rng, out);
  }
  sim::Envelope env;
  env.sender = 11;
  env.receiver = 0;
  env.payload = make_vote(1, 0);
  p.on_receive(env, rng, out);
  EXPECT_EQ(p.output(), kBot);
  EXPECT_EQ(p.estimate(), 1);
  EXPECT_EQ(p.round(), 2);
}

TEST(ResetProcess, BelowT3FlipsCoin) {
  // With a balanced T1 batch neither value reaches T3: x is re-randomized.
  // Determinism of the engine lets us just assert the round advanced and
  // the estimate is a bit.
  const int n = 12;
  const int t = 1;
  const Thresholds th = canonical_thresholds(n, t);
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(7);
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = (s + 1) % n;
    env.receiver = 0;
    env.payload = make_vote(1, s % 2);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.round(), 2);
  EXPECT_EQ(p.output(), kBot);
  EXPECT_TRUE(p.estimate() == 0 || p.estimate() == 1);
}

TEST(ResetProcess, ExtraVotesBeyondT1Ignored) {
  const int n = 12;
  const int t = 1;
  const Thresholds th = canonical_thresholds(n, t);
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  // T1 zeros then 5 ones (late arrivals for the same round).
  for (int s = 0; s < th.t1 + 5; ++s) {
    sim::Envelope env;
    env.sender = s % n;
    env.receiver = 0;
    env.payload = make_vote(1, s < th.t1 ? 0 : 1);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.output(), 0);   // decided on the first T1 (all zeros)
  EXPECT_EQ(p.round(), 2);    // advanced exactly once
}

TEST(ResetProcess, FutureRoundVotesBufferedAndConsumed) {
  const int n = 12;
  const int t = 1;
  const Thresholds th = canonical_thresholds(n, t);
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  // Deliver T1 round-2 votes FIRST (p is still in round 1), then T1 round-1.
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = s % n;
    env.receiver = 0;
    env.payload = make_vote(2, 1);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.round(), 1);  // cannot act on round 2 yet
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = s % n;
    env.receiver = 0;
    env.payload = make_vote(1, 1);
    p.on_receive(env, rng, out);
  }
  // Round 1 consumed, then buffered round 2 votes consumed in cascade.
  EXPECT_EQ(p.round(), 3);
  EXPECT_EQ(p.output(), 1);
}

TEST(ResetProcess, ResetErasesEverythingButIdentityInputOutput) {
  const int n = 12;
  ResetProcess p(3, n, 1, canonical_thresholds(n, 1));
  p.on_reset();
  EXPECT_TRUE(p.rejoining());
  EXPECT_EQ(p.round(), kBot);
  EXPECT_EQ(p.estimate(), kBot);
  EXPECT_EQ(p.input(), 1);    // survives
  EXPECT_EQ(p.output(), kBot);  // unwritten, survives as ⊥
}

TEST(ResetProcess, RejoinAdoptsCommonRoundAndResumes) {
  const int n = 12;
  const int t = 1;
  const Thresholds th = canonical_thresholds(n, t);
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  p.on_reset();
  ASSERT_TRUE(p.rejoining());
  // T1 votes with common round 5 arrive.
  for (int s = 0; s < th.t1; ++s) {
    sim::Envelope env;
    env.sender = (s + 1) % n;
    env.receiver = 0;
    env.payload = make_vote(5, 1);
    p.on_receive(env, rng, out);
  }
  EXPECT_FALSE(p.rejoining());
  EXPECT_EQ(p.round(), 6);      // adopted 5, did step 3, advanced
  EXPECT_EQ(p.estimate(), 1);   // unanimous ones → adopt 1
  EXPECT_EQ(p.output(), 1);     // T2 met
  EXPECT_FALSE(out.empty());    // resumed sending
}

TEST(ResetProcess, RejoiningProcessorStaysSilentUntilRejoin) {
  const int n = 12;
  const Thresholds th = canonical_thresholds(n, 1);
  ResetProcess p(0, n, 0, th);
  sim::Outbox out(n);
  Rng rng(1);
  p.on_reset();
  // Fewer than T1 votes: still rejoining, still silent.
  for (int s = 0; s < th.t1 - 1; ++s) {
    sim::Envelope env;
    env.sender = (s + 1) % n;
    env.receiver = 0;
    env.payload = make_vote(4, 0);
    p.on_receive(env, rng, out);
  }
  EXPECT_TRUE(p.rejoining());
  EXPECT_TRUE(out.empty());
}

TEST(ResetProcess, DecidedProcessorKeepsParticipating) {
  // After deciding, the processor still votes (peers rely on its messages).
  const int n = 12;
  const int t = 1;
  Execution e = make_exec(t, unanimous_inputs(n, 1), 1);
  adversary::FairWindowAdversary fair;
  sim::run_acceptable_window(e, fair, t);
  ASSERT_EQ(e.decided_count(), n);
  // All processors staged round-2 votes after deciding.
  for (int p = 0; p < n; ++p) EXPECT_TRUE(e.has_staged(p));
}

TEST(ResetProcess, EndToEndWithResetStormTerminatesAndAgrees) {
  const int n = 14;
  const int t = 2;
  Execution e = make_exec(t, split_inputs(n, 0.5), 99);
  adversary::ResetStormAdversary storm(t, Rng(5));
  const auto windows = sim::run_until_all_decided(e, storm, t, 200000);
  EXPECT_LT(windows, 200000);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
  EXPECT_GT(e.total_resets(), 0);
}

// Parameterized sweep: unanimity fast path must hold for every adversary
// and both values across a range of n.
struct FastPathParam {
  int n;
  int t;
  int value;
};

class ResetFastPathTest : public ::testing::TestWithParam<FastPathParam> {};

TEST_P(ResetFastPathTest, UnanimousDecidesInWindowOne) {
  const auto [n, t, v] = GetParam();
  Execution e = make_exec(t, unanimous_inputs(n, v), 7);
  adversary::SplitKeeperAdversary keeper;  // even adversarial ordering
  sim::run_acceptable_window(e, keeper, t);
  EXPECT_EQ(e.decided_count(), n);
  for (int p = 0; p < n; ++p) EXPECT_EQ(e.output(p), v);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResetFastPathTest,
    ::testing::Values(FastPathParam{7, 1, 0}, FastPathParam{7, 1, 1},
                      FastPathParam{13, 2, 0}, FastPathParam{13, 2, 1},
                      FastPathParam{19, 3, 0}, FastPathParam{19, 3, 1},
                      FastPathParam{25, 4, 1}, FastPathParam{31, 5, 0}));

}  // namespace
}  // namespace aa::protocols
