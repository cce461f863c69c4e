#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "protocols/bracha.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"
#include "sim/window.hpp"

namespace aa::protocols {
namespace {

using sim::Execution;

TEST(BrachaAux, PackUnpackRoundTrip) {
  for (int orig : {0, 1, 63, 1000}) {
    for (int step : {1, 2, 3}) {
      for (bool flag : {false, true}) {
        const auto aux = pack_bracha_aux(orig, step, flag);
        const BrachaAux a = unpack_bracha_aux(aux);
        EXPECT_EQ(a.originator, orig);
        EXPECT_EQ(a.step, step);
        EXPECT_EQ(a.decide_flag, flag);
      }
    }
  }
}

TEST(BrachaAux, Validation) {
  EXPECT_THROW((void)pack_bracha_aux(-1, 1, false), std::invalid_argument);
  EXPECT_THROW((void)pack_bracha_aux(0, 0, false), std::invalid_argument);
  EXPECT_THROW((void)pack_bracha_aux(0, 4, false), std::invalid_argument);
}

TEST(Bracha, ConstructionValidation) {
  EXPECT_NO_THROW(BrachaProcess(0, 7, 2, 1));
  EXPECT_THROW(BrachaProcess(0, 6, 2, 1), std::invalid_argument);  // t >= n/3
  EXPECT_THROW(BrachaProcess(0, 7, 2, 5), std::invalid_argument);
}

TEST(Bracha, StartBroadcastsInit) {
  BrachaProcess p(2, 7, 2, 1);
  sim::Outbox out(7);
  p.on_start(out);
  ASSERT_EQ(out.message_count(), 7u);
  EXPECT_EQ(out.items()[0].msg.kind, kRbcInitKind);
  const BrachaAux a = unpack_bracha_aux(out.items()[0].msg.aux);
  EXPECT_EQ(a.originator, 2);
  EXPECT_EQ(a.step, 1);
}

TEST(Bracha, EchoOnFirstInitOnly) {
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 3;
  env.receiver = 0;
  env.payload.round = 1;
  env.payload.kind = kRbcInitKind;
  env.payload.value = 1;
  env.payload.aux = pack_bracha_aux(3, 1, false);
  p.on_receive(env, rng, out);
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));  // one echo burst
  EXPECT_EQ(out.items()[0].msg.kind, kRbcEchoKind);
  // Duplicate init: no second echo.
  p.on_receive(env, rng, out);
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));
}

TEST(Bracha, InitFromNonOriginatorIgnored) {
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 5;  // claims originator 3 — forged relay, ignored
  env.receiver = 0;
  env.payload.round = 1;
  env.payload.kind = kRbcInitKind;
  env.payload.value = 1;
  env.payload.aux = pack_bracha_aux(3, 1, false);
  p.on_receive(env, rng, out);
  EXPECT_TRUE(out.empty());
}

TEST(Bracha, ReadyAfterEchoQuorum) {
  const int n = 7;
  const int t = 2;
  const int echo_quorum = (n + t) / 2 + 1;  // 5
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < echo_quorum; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload.round = 1;
    env.payload.kind = kRbcEchoKind;
    env.payload.value = 1;
    env.payload.aux = pack_bracha_aux(6, 1, false);
    out.clear();
    p.on_receive(env, rng, out);
  }
  // The quorum-completing echo triggers the READY burst.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.items()[0].msg.kind, kRbcReadyKind);
}

TEST(Bracha, ReadyAmplification) {
  // t + 1 readies (without echo quorum) also trigger READY.
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < t + 1; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload.round = 1;
    env.payload.kind = kRbcReadyKind;
    env.payload.value = 0;
    env.payload.aux = pack_bracha_aux(6, 1, false);
    out.clear();
    p.on_receive(env, rng, out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.items()[0].msg.kind, kRbcReadyKind);
}

TEST(Bracha, DuplicateEchoesFromSameSenderDontCount) {
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 1;
  env.receiver = 0;
  env.payload.round = 1;
  env.payload.kind = kRbcEchoKind;
  env.payload.value = 1;
  env.payload.aux = pack_bracha_aux(6, 1, false);
  for (int i = 0; i < 10; ++i) p.on_receive(env, rng, out);
  // 10 copies of one sender's echo: no ready.
  for (const auto& item : out.items())
    EXPECT_NE(item.msg.kind, kRbcReadyKind);
}

TEST(Bracha, EndToEndFairWindowsDecideAndAgree) {
  const int n = 7;
  const int t = 2;
  Execution e(make_processes(ProtocolKind::Bracha, t, split_inputs(n, 0.5)),
              11);
  adversary::FairWindowAdversary fair;
  const auto windows = sim::run_until_all_decided(e, fair, t, 500000);
  EXPECT_LT(windows, 500000);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
}

TEST(Bracha, UnanimousDecidesQuicklyUnderWindows) {
  const int n = 7;
  const int t = 2;
  for (int v = 0; v <= 1; ++v) {
    Execution e(make_processes(ProtocolKind::Bracha, t, unanimous_inputs(n, v)),
                static_cast<std::uint64_t>(v + 3));
    adversary::FairWindowAdversary fair;
    const auto windows = sim::run_until_all_decided(e, fair, t, 1000);
    EXPECT_LT(windows, 50);  // RBC costs a few windows per step; still fast
    for (int p = 0; p < n; ++p) EXPECT_EQ(e.output(p), v);
  }
}

TEST(Bracha, ToleratesSilencedMinority) {
  const int n = 10;
  const int t = 3;
  Execution e(make_processes(ProtocolKind::Bracha, t, split_inputs(n, 0.5)),
              13);
  adversary::SilencerWindowAdversary silencer({0, 1, 2});
  const auto windows = sim::run_until_all_decided(e, silencer, t, 500000);
  EXPECT_LT(windows, 500000);
  // The silenced processors still decide: they RECEIVE everything, they are
  // just never heard. Agreement must hold across all 10.
  EXPECT_TRUE(e.outputs_agree());
  int decided = 0;
  for (int p = 0; p < n; ++p) {
    if (e.output(p) != sim::kBot) ++decided;
  }
  EXPECT_GE(decided, n - t);
}

TEST(Bracha, AsyncRandomSchedulerAgrees) {
  const int n = 7;
  const int t = 2;
  Execution e(make_processes(ProtocolKind::Bracha, t, split_inputs(n, 0.5)),
              17);
  adversary::RandomAsyncScheduler sched(Rng(23));
  sim::run_async(e, sched, t, 10'000'000, /*until_all=*/true);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
}

}  // namespace
}  // namespace aa::protocols
