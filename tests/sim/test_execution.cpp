#include <gtest/gtest.h>

#include <memory>

#include "sim/execution.hpp"

namespace aa::sim {
namespace {

// Minimal protocol for engine tests: broadcasts its input at start, echoes
// every received message's round + 1 back to the sender, decides its input
// upon receiving a message with round >= 3, and remembers reset counts.
class EchoProcess final : public Process {
 public:
  EchoProcess(int id, int n, int input) : id_(id), n_(n), input_(input) {}

  void on_start(Outbox& out) override {
    Message m;
    m.round = 1;
    m.kind = 1;
    m.value = input_;
    out.broadcast(m);
  }

  void on_receive(const Envelope& env, Rng& rng, Outbox& out) override {
    (void)rng;
    ++received_;
    if (env.payload.round >= 3 && output_ == kBot) output_ = input_;
    Message m = env.payload;
    m.round += 1;
    out.send(env.sender, m);
  }

  void on_reset() override {
    received_ = 0;
    was_reset_ = true;
  }

  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return 0; }
  [[nodiscard]] int estimate() const override { return input_; }
  [[nodiscard]] const char* protocol_name() const override { return "echo"; }

  int received_ = 0;
  bool was_reset_ = false;

 private:
  int id_;
  int n_;
  int input_;
  int output_ = kBot;
};

// Broken protocol that rewrites its output, to test the write-once guard.
class RewriterProcess final : public Process {
 public:
  void on_start(Outbox& out) override {
    Message m;
    m.kind = 1;
    out.broadcast(m);
  }
  void on_receive(const Envelope&, Rng&, Outbox&) override {
    output_ = flips_ % 2;
    ++flips_;
  }
  void on_reset() override {}
  [[nodiscard]] int input() const override { return 0; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return 0; }
  [[nodiscard]] int estimate() const override { return 0; }
  [[nodiscard]] const char* protocol_name() const override { return "rw"; }

 private:
  int output_ = kBot;
  int flips_ = 0;
};

std::vector<std::unique_ptr<Process>> echo_procs(int n) {
  std::vector<std::unique_ptr<Process>> ps;
  for (int i = 0; i < n; ++i)
    ps.push_back(std::make_unique<EchoProcess>(i, n, i % 2));
  return ps;
}

TEST(Execution, StartStagesButDoesNotPublish) {
  Execution e(echo_procs(3), 1);
  EXPECT_EQ(e.buffer().total_sent(), 0u);
  EXPECT_TRUE(e.has_staged(0));
}

TEST(Execution, SendingStepPublishesBroadcast) {
  Execution e(echo_procs(3), 1);
  const auto ids = e.sending_step(0);
  EXPECT_EQ(ids.size(), 3u);  // broadcast to all incl. self
  EXPECT_EQ(e.buffer().pending_count(), 3u);
  EXPECT_FALSE(e.has_staged(0));
}

TEST(Execution, SecondSendingStepIsNoOp) {
  // D1: a sending step is a complete response; with no intervening
  // receive/reset, the next sending step publishes nothing.
  Execution e(echo_procs(3), 1);
  EXPECT_EQ(e.sending_step(0).size(), 3u);
  EXPECT_EQ(e.sending_step(0).size(), 0u);
}

TEST(Execution, ReceivingStepDeliversAndStagesResponse) {
  Execution e(echo_procs(2), 1);
  e.sending_step(0);
  const auto pending = e.buffer().pending_to_ids(1);
  ASSERT_FALSE(pending.empty());
  e.receiving_step(pending[0]);
  EXPECT_FALSE(e.buffer().is_pending(pending[0]));
  EXPECT_EQ(e.buffer().delivered_count(), 1u);
  EXPECT_TRUE(e.has_staged(1));  // echo reply staged, not yet published
}

TEST(Execution, ReceivingNonPendingThrows) {
  Execution e(echo_procs(2), 1);
  e.sending_step(0);
  const auto pending = e.buffer().pending_to_ids(1);
  e.receiving_step(pending[0]);
  EXPECT_THROW(e.receiving_step(pending[0]), std::logic_error);
}

TEST(Execution, ResettingStepClearsStagedMessages) {
  // Erased memory cannot send: staged messages are destroyed by a reset.
  Execution e(echo_procs(2), 1);
  EXPECT_TRUE(e.has_staged(0));
  e.resetting_step(0);
  EXPECT_FALSE(e.has_staged(0));
  EXPECT_EQ(e.reset_count(0), 1);
  EXPECT_EQ(e.total_resets(), 1);
}

TEST(Execution, ResetInvokesProcessHook) {
  auto procs = echo_procs(2);
  auto* raw = static_cast<EchoProcess*>(procs[0].get());
  Execution e(std::move(procs), 1);
  e.resetting_step(0);
  EXPECT_TRUE(raw->was_reset_);
}

TEST(Execution, CrashStopsDeliveries) {
  Execution e(echo_procs(2), 1);
  e.sending_step(0);
  e.crash(1);
  EXPECT_TRUE(e.crashed(1));
  EXPECT_EQ(e.crashed_count(), 1);
  const auto pending = e.buffer().pending_to_ids(1);
  ASSERT_FALSE(pending.empty());
  EXPECT_THROW(e.receiving_step(pending[0]), std::logic_error);
}

TEST(Execution, CrashedSenderPublishesNothing) {
  Execution e(echo_procs(2), 1);
  e.crash(0);
  EXPECT_TRUE(e.sending_step(0).empty());
}

TEST(Execution, CrashIsIdempotent) {
  Execution e(echo_procs(2), 1);
  e.crash(0);
  e.crash(0);
  EXPECT_EQ(e.crashed_count(), 1);
}

TEST(Execution, ResettingCrashedProcessorThrows) {
  Execution e(echo_procs(2), 1);
  e.crash(0);
  EXPECT_THROW(e.resetting_step(0), std::logic_error);
}

TEST(Execution, EndWindowDropsPendingOfThatWindow) {
  Execution e(echo_procs(2), 1);
  e.begin_window_batch();
  e.sending_step(0);  // 2 messages in window 0
  EXPECT_EQ(e.window(), 0);
  EXPECT_EQ(e.buffer().pending_count(), 2u);
  e.end_window();
  EXPECT_EQ(e.window(), 1);
  EXPECT_EQ(e.buffer().pending_count(), 0u);
  EXPECT_EQ(e.buffer().dropped_count(), 2u);
}

TEST(Execution, EndWindowRefusesArenaMessages) {
  // Messages published outside a collected window are the async model's,
  // which has no window edges: closing a window over them is a driver bug.
  Execution e(echo_procs(2), 1);
  e.sending_step(0);
  EXPECT_THROW(e.end_window(), std::logic_error);
  EXPECT_EQ(e.window(), 0);
}

TEST(Execution, ChainDepthPropagates) {
  Execution e(echo_procs(2), 1);
  e.sending_step(0);  // chain 1 messages
  const auto to1 = e.buffer().pending_to_ids(1);
  e.receiving_step(to1[0]);
  EXPECT_EQ(e.chain_depth(1), 1);
  const auto reply = e.sending_step(1);  // reply has chain 2
  ASSERT_FALSE(reply.empty());
  const MsgId reply0 = reply[0];
  EXPECT_EQ(e.buffer().get(reply0).chain, 2);
  e.receiving_step(reply0);
  EXPECT_EQ(e.chain_depth(0), 2);
}

TEST(Execution, DecisionRecorded) {
  Execution e(echo_procs(2), 1);
  e.sending_step(0);
  // Bounce messages until round >= 3 triggers a decision at proc 1.
  for (int hop = 0; hop < 6 && e.decided_count() == 0; ++hop) {
    for (ProcId p = 0; p < 2; ++p) {
      for (const Envelope& env : e.buffer().pending_to(p))
        e.receiving_step(env.id);
      e.sending_step(p);
    }
  }
  ASSERT_GT(e.decided_count(), 0);
  const auto d = e.first_decision();
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->value == 0 || d->value == 1);
  EXPECT_GT(d->chain, 0);
}

TEST(Execution, OutputsAgreeVacuouslyTrue) {
  Execution e(echo_procs(4), 1);
  EXPECT_TRUE(e.outputs_agree());
  EXPECT_FALSE(e.all_live_decided());
}

TEST(Execution, WriteOnceOutputEnforced) {
  std::vector<std::unique_ptr<Process>> ps;
  ps.push_back(std::make_unique<RewriterProcess>());
  ps.push_back(std::make_unique<RewriterProcess>());
  Execution e(std::move(ps), 1);
  e.sending_step(0);
  e.sending_step(1);
  // Both broadcasts pend at receiver 1 (one from 0, one from itself).
  const auto to1 = e.buffer().pending_to_ids(1);
  ASSERT_GE(to1.size(), 2u);
  e.receiving_step(to1[0]);  // first write: ⊥ → 0, fine
  // Rewriter flips 0 → 1 on the next receive: engine must fault.
  EXPECT_THROW(e.receiving_step(to1[1]), std::logic_error);
}

TEST(Execution, EventLogWhenEnabled) {
  ExecutionConfig cfg;
  cfg.record_events = true;
  Execution e(echo_procs(2), 1, cfg);
  e.sending_step(0);
  const auto pending = e.buffer().pending_to_ids(1);
  e.receiving_step(pending[0]);
  e.resetting_step(0);
  ASSERT_EQ(e.events().size(), 3u);
  EXPECT_EQ(e.events()[0].kind, StepKind::Send);
  EXPECT_EQ(e.events()[1].kind, StepKind::Receive);
  EXPECT_EQ(e.events()[2].kind, StepKind::Reset);
}

TEST(Execution, EventLogOffByDefault) {
  Execution e(echo_procs(2), 1);
  e.sending_step(0);
  EXPECT_TRUE(e.events().empty());
  EXPECT_GT(e.step_count(), 0);
}

TEST(Execution, DeterministicAcrossSameSeed) {
  auto run = [](std::uint64_t seed) {
    Execution e(echo_procs(4), seed);
    for (ProcId p = 0; p < 4; ++p) e.sending_step(p);
    std::size_t delivered = 0;
    for (ProcId p = 0; p < 4; ++p) {
      for (const Envelope& env : e.buffer().pending_to(p)) {
        e.receiving_step(env.id);
        ++delivered;
      }
    }
    return delivered;
  };
  EXPECT_EQ(run(99), run(99));
}

}  // namespace
}  // namespace aa::sim
