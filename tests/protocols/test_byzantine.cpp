#include <gtest/gtest.h>

#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"
#include "protocols/byzantine.hpp"
#include "protocols/reset_agreement.hpp"

namespace aa::protocols {
namespace {

TEST(ByzantineProcess, SilentDropsEverything) {
  auto inner = std::make_unique<ResetProcess>(0, 12, 1,
                                              canonical_thresholds(12, 1));
  ByzantineProcess byz(std::move(inner), ByzantineStrategy::Silent, 1);
  sim::Outbox out(12);
  byz.on_start(out);
  EXPECT_TRUE(out.empty());
}

TEST(ByzantineProcess, FlipAllInvertsVotes) {
  auto inner = std::make_unique<ResetProcess>(0, 12, 1,
                                              canonical_thresholds(12, 1));
  ByzantineProcess byz(std::move(inner), ByzantineStrategy::FlipAll, 1);
  sim::Outbox out(12);
  byz.on_start(out);
  ASSERT_EQ(out.items().size(), 12u);
  // Inner input is 1; every broadcast vote must read 0.
  for (const auto& item : out.items()) EXPECT_EQ(item.msg.value, 0);
}

TEST(ByzantineProcess, EquivocateSplitsByReceiverId) {
  auto inner = std::make_unique<ResetProcess>(0, 12, 0,
                                              canonical_thresholds(12, 1));
  ByzantineProcess byz(std::move(inner), ByzantineStrategy::Equivocate, 1);
  sim::Outbox out(12);
  byz.on_start(out);
  ASSERT_EQ(out.items().size(), 12u);
  for (const auto& item : out.items()) {
    EXPECT_EQ(item.msg.value, item.to < 6 ? 0 : 1) << "receiver " << item.to;
  }
}

TEST(ByzantineProcess, RandomLieIsDeterministicInSeed) {
  auto values_for = [](std::uint64_t seed) {
    auto inner = std::make_unique<ResetProcess>(0, 12, 0,
                                                canonical_thresholds(12, 1));
    ByzantineProcess byz(std::move(inner), ByzantineStrategy::RandomLie,
                         seed);
    sim::Outbox out(12);
    byz.on_start(out);
    std::vector<int> vs;
    for (const auto& item : out.items()) vs.push_back(item.msg.value);
    return vs;
  };
  EXPECT_EQ(values_for(7), values_for(7));
  EXPECT_NE(values_for(7), values_for(8));
}

TEST(ByzantineProcess, RandomLieDrawsOneBitPerCopyInReceiverOrder) {
  // Pin the lie stream: every bit-valued copy of every broadcast takes one
  // lie_rng draw, copies in receiver order and broadcasts in staging
  // order; a ⊥ copy draws nothing.
  class ThreeBroadcasts final : public sim::Process {
   public:
    void on_start(sim::Outbox& out) override {
      for (const int v : {1, sim::kBot, 0}) {
        sim::Message m;
        m.kind = 1;
        m.value = v;
        out.broadcast(m);
      }
    }
    void on_receive(const sim::Envelope&, Rng&, sim::Outbox&) override {}
    void on_reset() override {}
    [[nodiscard]] int input() const override { return 0; }
    [[nodiscard]] int output() const override { return sim::kBot; }
    [[nodiscard]] int round() const override { return 0; }
    [[nodiscard]] int estimate() const override { return 0; }
    [[nodiscard]] const char* protocol_name() const override {
      return "three-broadcasts";
    }
  };
  const int n = 6;
  const std::uint64_t seed = 41;
  ByzantineProcess byz(std::make_unique<ThreeBroadcasts>(),
                       ByzantineStrategy::RandomLie, seed);
  sim::Outbox out(n);
  byz.on_start(out);
  ASSERT_EQ(out.items().size(), static_cast<std::size_t>(3 * n));
  Rng lie(seed);
  for (std::size_t i = 0; i < out.items().size(); ++i) {
    const sim::StagedMessage& item = out.items()[i];
    EXPECT_EQ(item.to, static_cast<sim::ProcId>(i % n)) << "copy " << i;
    const int expect =
        i / n == 1 ? sim::kBot : (lie.next_bool() ? 1 : 0);
    EXPECT_EQ(item.msg.value, expect) << "copy " << i;
  }
}

TEST(ByzantineProcess, IntrospectionPassesThrough) {
  auto inner = std::make_unique<ResetProcess>(3, 12, 1,
                                              canonical_thresholds(12, 1));
  ByzantineProcess byz(std::move(inner), ByzantineStrategy::FlipAll, 1);
  EXPECT_EQ(byz.input(), 1);
  EXPECT_EQ(byz.output(), sim::kBot);
  EXPECT_EQ(byz.round(), 1);
}

TEST(ByzantineProcess, BotValuesPassUncorrupted) {
  // Only bit-valued fields are lies; '?' proposals pass through.
  class BotSender final : public sim::Process {
   public:
    void on_start(sim::Outbox& out) override {
      sim::Message m;
      m.kind = 3;
      m.value = sim::kBot;
      out.broadcast(m);
    }
    void on_receive(const sim::Envelope&, Rng&, sim::Outbox&) override {}
    void on_reset() override {}
    [[nodiscard]] int input() const override { return 0; }
    [[nodiscard]] int output() const override { return sim::kBot; }
    [[nodiscard]] int round() const override { return 0; }
    [[nodiscard]] int estimate() const override { return 0; }
    [[nodiscard]] const char* protocol_name() const override { return "bot"; }
  };
  ByzantineProcess byz(std::make_unique<BotSender>(),
                       ByzantineStrategy::FlipAll, 1);
  sim::Outbox out(4);
  byz.on_start(out);
  for (const auto& item : out.items()) EXPECT_EQ(item.msg.value, sim::kBot);
}

TEST(MakeByzantineProcesses, WrapsPrefix) {
  const auto procs = make_byzantine_processes(
      ProtocolKind::Bracha, 3, split_inputs(10, 0.5), 2,
      ByzantineStrategy::Equivocate, 99);
  ASSERT_EQ(procs.size(), 10u);
  EXPECT_STREQ(procs[0]->protocol_name(), "byzantine-wrapper");
  EXPECT_STREQ(procs[1]->protocol_name(), "byzantine-wrapper");
  EXPECT_STREQ(procs[2]->protocol_name(), "bracha");
}

TEST(ByzantineRun, BrachaSurvivesEquivocators) {
  // t < n/3 Byzantine design point: per-payload RBC quorums stop lies.
  const int n = 10;
  const int t = 3;
  for (int f = 1; f <= t; ++f) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      adversary::FairWindowAdversary fair;
      const auto r =
          core::Runner(core::Experiment{
                           .kind = ProtocolKind::Bracha,
                           .inputs = split_inputs(n, 0.5),
                           .t = t,
                           .budget = 300000,
                           .byzantine = core::ByzantineSpec{
                               .count = f,
                               .strategy = ByzantineStrategy::Equivocate}})
              .run_byzantine(fair, seed);
      EXPECT_TRUE(r.honest_agreement) << "f=" << f << " seed=" << seed;
      EXPECT_TRUE(r.honest_validity) << "f=" << f << " seed=" << seed;
      EXPECT_TRUE(r.honest_all_decided) << "f=" << f << " seed=" << seed;
    }
  }
}

TEST(ByzantineRun, BrachaSurvivesSilenceAndRandomLies) {
  const int n = 10;
  const int t = 3;
  for (const auto strategy :
       {ByzantineStrategy::RandomLie, ByzantineStrategy::Silent}) {
    adversary::FairWindowAdversary fair;
    const auto r =
        core::Runner(core::Experiment{
                         .kind = ProtocolKind::Bracha,
                         .inputs = split_inputs(n, 0.5),
                         .t = t,
                         .budget = 300000,
                         .byzantine = core::ByzantineSpec{
                             .count = t, .strategy = strategy}})
            .run_byzantine(fair, 5);
    EXPECT_TRUE(r.honest_agreement) << byzantine_strategy_name(strategy);
    EXPECT_TRUE(r.honest_all_decided) << byzantine_strategy_name(strategy);
  }
}

TEST(ByzantineRun, BrachaFlipAllKeepsSafetyButStallsWithoutValidation) {
  // Systematic contrarians poison every first-(n−t) delivery prefix, so the
  // 2t+1 flagged quorum never completes: liveness stalls. This is exactly
  // the gap Bracha's (unimplemented) validation layer closes — safety is
  // untouched either way. See the scope note in protocols/bracha.hpp.
  const int n = 10;
  const int t = 3;
  adversary::FairWindowAdversary fair;
  const auto r =
      core::Runner(core::Experiment{
                       .kind = ProtocolKind::Bracha,
                       .inputs = split_inputs(n, 0.5),
                       .t = t,
                       .budget = 2000,
                       .byzantine = core::ByzantineSpec{
                           .count = t, .strategy = ByzantineStrategy::FlipAll}})
          .run_byzantine(fair, 5);
  EXPECT_TRUE(r.honest_agreement);
  EXPECT_TRUE(r.honest_validity);
  EXPECT_FALSE(r.honest_all_decided);
}

TEST(ByzantineRun, ResetAgreementVulnerableToLying) {
  // §2 incomparability: the reset-tolerant algorithm is NOT Byzantine-
  // tolerant. f = t equivocators keep every honest processor's vote tally
  // split forever: honest liveness dies (safety happens to survive at
  // these sizes — the thresholds still prevent conflicting writes).
  const int n = 13;
  const int t = 2;
  int clean = 0;
  const int trials = 6;
  for (std::uint64_t seed = 1; seed <= trials; ++seed) {
    adversary::FairWindowAdversary fair;
    const auto r =
        core::Runner(core::Experiment{
                         .kind = ProtocolKind::Reset,
                         .inputs = split_inputs(n, 0.5),
                         .t = t,
                         .budget = 2000,
                         .byzantine = core::ByzantineSpec{
                             .count = t,
                             .strategy = ByzantineStrategy::Equivocate}})
            .run_byzantine(fair, seed);
    if (r.honest_agreement && r.honest_validity && r.honest_all_decided)
      ++clean;
  }
  EXPECT_EQ(clean, 0);
}

}  // namespace
}  // namespace aa::protocols
