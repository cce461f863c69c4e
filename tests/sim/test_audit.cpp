#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "sim/async.hpp"
#include "sim/buffer.hpp"
#include "sim/execution.hpp"
#include "sim/window.hpp"

namespace aa::sim {

// The auditor's test backdoor (declared a friend in buffer.hpp /
// execution.hpp): plants targeted corruptions in otherwise-unreachable
// private state, so the self-test can prove the auditor actually detects
// each invariant violation rather than vacuously passing.
struct AuditTestAccess {
  // ---- MessageBuffer state ----
  static std::int32_t slot_of(MessageBuffer& b, MsgId id) {
    return b.slot_of(id);
  }
  static std::int32_t rcv_head(MessageBuffer& b, ProcId r) {
    return b.rcv_head_[static_cast<std::size_t>(r)];
  }
  static void set_next_rcv(MessageBuffer& b, std::int32_t s, std::int32_t v) {
    b.slots_[static_cast<std::size_t>(s)].link.next_rcv = v;
  }
  static Envelope& env(MessageBuffer& b, std::int32_t s) {
    return b.slots_[static_cast<std::size_t>(s)].env;
  }
  /// Break a pending id's resolution: remap it to another slot, keeping
  /// the map's size.
  static void unresolve_id(MessageBuffer& b, MsgId id) {
    const std::int32_t s = b.slot_of(id);
    b.id_map_.erase(id);
    b.id_map_.insert(id, s == 0 ? 1 : 0);  // any other slot index
  }
  static void bump_pending(MessageBuffer& b) { ++b.pending_; }
  static void set_free_head(MessageBuffer& b, std::int32_t s) {
    b.free_head_ = s;
  }
  // ---- Execution state ----
  static MessageBuffer& buffer(Execution& e) { return e.buffer_; }
  static void push_decision(Execution& e, const Decision& d) {
    e.decisions_.push_back(d);
  }
  static void set_crashed_count(Execution& e, int v) { e.crashed_count_ = v; }
  static void bump_total_resets(Execution& e) { ++e.total_resets_; }
  static void stage_message(Execution& e, ProcId p) {
    e.staged_[static_cast<std::size_t>(p)].send(0, Message{});
  }
};

namespace {

// A buffer exercising every slot state the auditor distinguishes: pending
// (on a receiver list) and free (retired via mark_delivered).
MessageBuffer busy_buffer() {
  MessageBuffer buf(4);
  const std::vector<StagedMessage> broadcast{
      {0, Message{}}, {1, Message{}}, {2, Message{}}, {3, Message{}}};
  for (ProcId s = 0; s < 4; ++s) {
    buf.add_batch(s, broadcast, /*window=*/0, /*chain=*/1);
  }
  for (const MsgId id : buf.pending_to_ids(0)) buf.mark_delivered(id);
  const std::vector<MsgId> to1 = buf.pending_to_ids(1);
  buf.mark_delivered(to1[0]);
  buf.mark_delivered(to1[1]);
  return buf;
}

// One live (pending) message id addressed to receiver 2, in the middle of
// its receiver list: the richest corruption target.
MsgId live_id(MessageBuffer& buf) {
  const std::vector<MsgId> ids = buf.pending_to_ids(2);
  EXPECT_FALSE(ids.empty());
  return ids[1];
}

TEST(BufferAudit, CleanBufferPasses) {
  MessageBuffer buf = busy_buffer();
  EXPECT_NO_THROW(buf.audit());
  // And stays clean once drained and across a claim of window ids.
  for (const MsgId id : buf.all_pending_ids()) buf.mark_delivered(id);
  EXPECT_NO_THROW(buf.audit());
  (void)buf.claim_ids(5);
  EXPECT_NO_THROW(buf.audit());
  buf.retire_claimed(2, 3);
  EXPECT_NO_THROW(buf.audit());
}

TEST(BufferAudit, DetectsReceiverListCycle) {
  MessageBuffer buf = busy_buffer();
  const std::int32_t head = AuditTestAccess::rcv_head(buf, 2);
  ASSERT_GE(head, 0);
  AuditTestAccess::set_next_rcv(buf, head, head);
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsIdMapEntryBroken) {
  MessageBuffer buf = busy_buffer();
  AuditTestAccess::unresolve_id(buf, live_id(buf));
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsRetiredMarkOnLinkedSlot) {
  // Forge the free-slot mark (id kNoMsg) on a still-linked slot.
  MessageBuffer buf = busy_buffer();
  const std::int32_t slot = AuditTestAccess::slot_of(buf, live_id(buf));
  AuditTestAccess::env(buf, slot).id = kNoMsg;
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsLifecycleCounterDrift) {
  MessageBuffer buf = busy_buffer();
  AuditTestAccess::bump_pending(buf);
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsWindowFieldTamper) {
  MessageBuffer buf = busy_buffer();
  const std::int32_t slot = AuditTestAccess::slot_of(buf, live_id(buf));
  AuditTestAccess::env(buf, slot).window += 7;
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsIdFieldTamper) {
  MessageBuffer buf = busy_buffer();
  const std::int32_t slot = AuditTestAccess::slot_of(buf, live_id(buf));
  AuditTestAccess::env(buf, slot).id = 9999;  // beyond every issued id
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsFreeListPointingAtLiveSlot) {
  MessageBuffer buf = busy_buffer();
  AuditTestAccess::set_free_head(buf,
                                 AuditTestAccess::slot_of(buf, live_id(buf)));
  EXPECT_THROW(buf.audit(), std::logic_error);
}

// ---- Execution-level auditor ----------------------------------------------

class PingProcess final : public Process {
 public:
  explicit PingProcess(int input) : input_(input) {}
  void on_start(Outbox& out) override {
    Message m;
    m.round = 1;
    m.value = input_;
    out.broadcast(m);
  }
  void on_receive(const Envelope& env, Rng&, Outbox& out) override {
    if (env.payload.round >= 4 && output_ == kBot) output_ = input_;
    Message m = env.payload;
    m.round += 1;
    out.send(env.sender, m);
  }
  void on_reset() override {}
  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return 0; }
  [[nodiscard]] int estimate() const override { return input_; }
  [[nodiscard]] const char* protocol_name() const override { return "ping"; }

 private:
  int input_;
  int output_ = kBot;
};

std::vector<std::unique_ptr<Process>> ping_procs(int n) {
  std::vector<std::unique_ptr<Process>> ps;
  for (int i = 0; i < n; ++i) {
    ps.push_back(std::make_unique<PingProcess>(i % 2));
  }
  return ps;
}

TEST(ExecutionAudit, CleanRunPassesAndAuditConfigRunsEveryWindow) {
  ExecutionConfig cfg;
  cfg.audit = true;  // end_window audits at every window boundary from here on
  Execution exec(ping_procs(6), 42, cfg);
  adversary::FairWindowAdversary fair;
  for (int w = 0; w < 6; ++w) {
    ASSERT_NO_THROW(run_acceptable_window(exec, fair, /*t=*/1));
  }
  EXPECT_NO_THROW(exec.audit());
}

TEST(ExecutionAudit, DetectsBogusDecisionRecord) {
  Execution exec(ping_procs(4), 7);
  AuditTestAccess::push_decision(
      exec, Decision{/*proc=*/0, /*value=*/2, /*window=*/0, /*step=*/0,
                     /*chain=*/0});
  EXPECT_THROW(exec.audit(), std::logic_error);
}

TEST(ExecutionAudit, DetectsCrashedCountTamper) {
  Execution exec(ping_procs(4), 7);
  AuditTestAccess::set_crashed_count(exec, 2);
  EXPECT_THROW(exec.audit(), std::logic_error);
}

TEST(ExecutionAudit, DetectsResetCounterTamper) {
  Execution exec(ping_procs(4), 7);
  AuditTestAccess::bump_total_resets(exec);
  EXPECT_THROW(exec.audit(), std::logic_error);
}

TEST(ExecutionAudit, DetectsStagedMessagesOnCrashedProcessor) {
  Execution exec(ping_procs(4), 7);
  exec.crash(1);
  EXPECT_NO_THROW(exec.audit());  // crash alone is consistent
  AuditTestAccess::stage_message(exec, 1);
  EXPECT_THROW(exec.audit(), std::logic_error);
}

TEST(ExecutionAudit, DetectsWindowStoreTamper) {
  // A collected window mid-delivery audits clean; a delivered flag set
  // behind the engine's back, or a run whose ids no longer tile the
  // window, does not.
  Execution exec(ping_procs(4), 7);
  exec.begin_window_batch();
  for (ProcId p = 0; p < 4; ++p) (void)exec.sending_step(p);
  const std::vector<ProcId> row{3, 1};
  ASSERT_EQ(exec.deliver_plan_row(0, row), 2);
  EXPECT_NO_THROW(exec.audit());
  WindowScratch& sc = exec.window_scratch();
  const auto undelivered = static_cast<std::size_t>(
      exec.window_batch().from_to(2, 0)[0] - exec.window_batch().ids()[0]);
  sc.delivered[undelivered] = 1;
  EXPECT_THROW(exec.audit(), std::logic_error);
  sc.delivered[undelivered] = 0;
  EXPECT_NO_THROW(exec.audit());
  sc.runs[1].first += 1;
  EXPECT_THROW(exec.audit(), std::logic_error);
}

TEST(ExecutionAudit, BufferCorruptionSurfacesThroughExecutionAudit) {
  Execution exec(ping_procs(4), 7);
  for (ProcId p = 0; p < 4; ++p) (void)exec.sending_step(p);
  MessageBuffer& buf = AuditTestAccess::buffer(exec);
  ASSERT_GT(buf.pending_count(), 0u);
  AuditTestAccess::bump_pending(buf);
  EXPECT_THROW(exec.audit(), std::logic_error);
}

TEST(ExecutionAudit, AsyncRunsAuditAfterDeliveriesWhenAsked) {
  // run_async audits after every delivery under `audit`, and after every
  // Nth delivery under `audit_every = N`; with neither, a planted
  // corruption goes unnoticed.
  struct Case {
    bool audit;
    int audit_every;
    std::int64_t max_deliveries;
    bool throws;
  };
  for (const Case c : {Case{false, 0, 5, false}, Case{true, 0, 1, true},
                       Case{false, 5, 4, false}, Case{false, 5, 5, true}}) {
    ExecutionConfig cfg;
    cfg.audit = c.audit;
    cfg.audit_every = c.audit_every;
    Execution exec(ping_procs(4), 7, cfg);
    AuditTestAccess::bump_pending(AuditTestAccess::buffer(exec));
    adversary::RandomAsyncScheduler adv(Rng(3));
    if (c.throws) {
      EXPECT_THROW(run_async(exec, adv, /*t=*/1, c.max_deliveries),
                   std::logic_error)
          << "audit_every " << c.audit_every;
    } else {
      AsyncRunResult r;
      EXPECT_NO_THROW(r = run_async(exec, adv, /*t=*/1, c.max_deliveries))
          << "audit_every " << c.audit_every;
      EXPECT_EQ(r.deliveries, c.max_deliveries);
    }
  }
}

}  // namespace
}  // namespace aa::sim
