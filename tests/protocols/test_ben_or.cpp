#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "protocols/ben_or.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"

namespace aa::protocols {
namespace {

using sim::Execution;
using sim::kBot;

TEST(BenOr, ConstructionValidation) {
  EXPECT_NO_THROW(BenOrProcess(0, 5, 2, 1));
  EXPECT_THROW(BenOrProcess(0, 4, 2, 1), std::invalid_argument);  // t >= n/2
  EXPECT_THROW(BenOrProcess(0, 5, 2, 7), std::invalid_argument);  // bad input
  EXPECT_THROW(BenOrProcess(9, 5, 2, 1), std::invalid_argument);  // bad id
}

TEST(BenOr, StartBroadcastsReport) {
  BenOrProcess p(0, 5, 1, 1);
  sim::Outbox out(5);
  p.on_start(out);
  ASSERT_EQ(out.message_count(), 5u);
  EXPECT_EQ(out.items()[0].to, sim::kEveryone);  // one item per broadcast
  EXPECT_EQ(out.items()[0].msg.kind, kReportKind);
  EXPECT_EQ(out.items()[0].msg.round, 1);
  EXPECT_EQ(out.items()[0].msg.value, 1);
}

TEST(BenOr, Phase1MajorityProposesValue) {
  const int n = 7;
  const int t = 2;
  BenOrProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  // n - t = 5 reports: 4 ones (> n/2 = 3.5), 1 zero → proposal = 1.
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_report(1, s < 4 ? 1 : 0);
    p.on_receive(env, rng, out);
  }
  ASSERT_EQ(out.message_count(), static_cast<std::size_t>(n));
  EXPECT_EQ(out.items()[0].msg.kind, kProposalKind);
  EXPECT_EQ(out.items()[0].msg.value, 1);
}

TEST(BenOr, Phase1NoMajorityProposesBot) {
  const int n = 7;
  const int t = 2;
  BenOrProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  // 3 ones + 2 zeros: neither exceeds n/2 = 3.5.
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_report(1, s < 3 ? 1 : 0);
    p.on_receive(env, rng, out);
  }
  ASSERT_FALSE(out.items().empty());
  EXPECT_EQ(out.items()[0].msg.value, kBot);
}

TEST(BenOr, Phase2TPlusOneProposalsDecide) {
  const int n = 7;
  const int t = 2;
  BenOrProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  // Drive through phase 1 first (any outcome).
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_report(1, 1);
    p.on_receive(env, rng, out);
  }
  out.clear();
  // Phase 2: t + 1 = 3 proposals for 1 among n - t = 5 → decide 1.
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_proposal(1, s < 3 ? 1 : kBot);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.output(), 1);
  EXPECT_EQ(p.round(), 2);  // decided processors keep going
  ASSERT_FALSE(out.items().empty());
  EXPECT_EQ(out.items()[0].msg.kind, kReportKind);
  EXPECT_EQ(out.items()[0].msg.round, 2);
}

TEST(BenOr, Phase2SingleProposalAdoptsWithoutDeciding) {
  const int n = 7;
  const int t = 2;
  BenOrProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_report(1, 0);
    p.on_receive(env, rng, out);
  }
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_proposal(1, s == 0 ? 1 : kBot);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.output(), kBot);
  EXPECT_EQ(p.estimate(), 1);
  EXPECT_EQ(p.round(), 2);
}

TEST(BenOr, Phase2AllBotFlipsCoin) {
  const int n = 7;
  const int t = 2;
  BenOrProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(3);
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_report(1, s % 2);
    p.on_receive(env, rng, out);
  }
  for (int s = 0; s < 5; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_proposal(1, kBot);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(p.output(), kBot);
  EXPECT_TRUE(p.estimate() == 0 || p.estimate() == 1);
  EXPECT_EQ(p.round(), 2);
}

TEST(BenOr, EndToEndRandomSchedulerAgrees) {
  const int n = 9;
  const int t = 2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Execution e(make_processes(ProtocolKind::BenOr, t, split_inputs(n, 0.5)),
                seed);
    adversary::RandomAsyncScheduler sched(Rng(seed * 31));
    sim::run_async(e, sched, t, 5'000'000, /*until_all=*/true);
    EXPECT_TRUE(e.all_live_decided()) << "seed=" << seed;
    EXPECT_TRUE(e.outputs_agree()) << "seed=" << seed;
  }
}

TEST(BenOr, ValidityUnderUnanimity) {
  const int n = 9;
  const int t = 2;
  for (int v = 0; v <= 1; ++v) {
    Execution e(make_processes(ProtocolKind::BenOr, t, unanimous_inputs(n, v)),
                static_cast<std::uint64_t>(v + 1));
    adversary::RandomAsyncScheduler sched(Rng(17));
    sim::run_async(e, sched, t, 5'000'000, /*until_all=*/true);
    for (int p = 0; p < n; ++p) EXPECT_EQ(e.output(p), v);
  }
}

TEST(BenOr, SurvivesMaxCrashes) {
  const int n = 9;
  const int t = 4;  // t < n/2
  Execution e(make_processes(ProtocolKind::BenOr, t, split_inputs(n, 0.5)), 3);
  adversary::FixedCrashScheduler sched({0, 1, 2, 3}, Rng(9));
  sim::run_async(e, sched, t, 5'000'000, /*until_all=*/true);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
}

TEST(BenOr, IsForgetfulAndFullyCommunicativeShape) {
  // Structural check used by §5: after acting on n − t messages, it
  // broadcasts to all n (fully communicative trigger).
  const int n = 7;
  const int t = 2;
  BenOrProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < n - t; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload = make_report(1, 0);
    p.on_receive(env, rng, out);
  }
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace aa::protocols
