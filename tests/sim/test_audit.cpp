#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "adversary/window_adversaries.hpp"
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
    b.links_[static_cast<std::size_t>(s)].next_rcv = v;
  }
  /// Forge the parked state on a slot (clear / restore the metadata id the
  /// SoA arena uses as its pending marker) — the analogue of the old
  /// lazy-flag tamper.
  static void set_parked(MessageBuffer& b, std::int32_t s, bool v) {
    b.meta_[static_cast<std::size_t>(s)].id =
        v ? kNoMsg : b.envs_[static_cast<std::size_t>(s)].id;
  }
  static Envelope& env(MessageBuffer& b, std::int32_t s) {
    return b.envs_[static_cast<std::size_t>(s)];
  }
  /// Break a pending id's resolution in whichever tier owns it: point the
  /// direct-index entry at the wrong slot, or erase the straggler-map
  /// entry.
  static void unresolve_id(MessageBuffer& b, MsgId id) {
    if (id >= b.direct_base_) {
      std::int32_t& entry =
          b.direct_slots_[static_cast<std::size_t>(id - b.direct_base_)];
      entry = entry == 0 ? 1 : 0;  // any other slot index
    } else {
      // aa-lint: erase-ok(audit self-test plants the corruption it detects)
      b.id_map_.erase(id);
    }
  }
  static void spill(MessageBuffer& b) { b.spill_direct_index(); }
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
// (receiver + send lists), lazy-parked (send list only, id unmapped),
// and free (retired via mark_delivered).
MessageBuffer busy_buffer() {
  MessageBuffer buf(4);
  const std::vector<StagedMessage> broadcast{
      {0, Message{}}, {1, Message{}}, {2, Message{}}, {3, Message{}}};
  for (ProcId s = 0; s < 4; ++s) {
    buf.add_batch(s, broadcast, /*window=*/0, /*chain=*/1);
  }
  // Receiver 0 holds one message per sender: one-slot segments.
  std::vector<const Envelope*> views(4);
  std::vector<std::int32_t> cursor{0, 1, 2, 3};
  EXPECT_EQ(buf.deliver_window_run_to(0, nullptr, 0, views, cursor.data()),
            4);
  const std::vector<MsgId> to1 = buf.pending_to_ids(1);
  buf.mark_delivered(to1[0]);
  buf.mark_delivered(to1[1]);
  return buf;
}

// One live (pending) message id addressed to receiver 2 — a slot on both
// the receiver and the send list, the richest corruption target.
MsgId live_id(MessageBuffer& buf) {
  const std::vector<MsgId> ids = buf.pending_to_ids(2);
  EXPECT_FALSE(ids.empty());
  return ids[1];
}

TEST(BufferAudit, CleanBufferPasses) {
  MessageBuffer buf = busy_buffer();
  EXPECT_NO_THROW(buf.audit());
  // And stays clean across the window sweep that recycles parked slots.
  buf.drop_pending();
  EXPECT_NO_THROW(buf.audit());
}

TEST(BufferAudit, DetectsReceiverListCycle) {
  MessageBuffer buf = busy_buffer();
  const std::int32_t head = AuditTestAccess::rcv_head(buf, 2);
  ASSERT_GE(head, 0);
  AuditTestAccess::set_next_rcv(buf, head, head);
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsDirectIndexEntryBroken) {
  // Fresh ids live in the direct tier: break its entry for a pending id.
  MessageBuffer buf = busy_buffer();
  AuditTestAccess::unresolve_id(buf, live_id(buf));
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsIdMapEntryMissingAfterSpill) {
  // After a spill every live id resolves through the straggler map; the
  // same corruption must be caught on that tier too.
  MessageBuffer buf = busy_buffer();
  AuditTestAccess::spill(buf);
  EXPECT_NO_THROW(buf.audit());  // the spill itself is invariant-preserving
  AuditTestAccess::unresolve_id(buf, live_id(buf));
  EXPECT_THROW(buf.audit(), std::logic_error);
}

TEST(BufferAudit, DetectsParkedStateOnLinkedSlot) {
  MessageBuffer buf = busy_buffer();
  AuditTestAccess::set_parked(buf, AuditTestAccess::slot_of(buf, live_id(buf)),
                              true);
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
  cfg.audit = true;  // end_window audits before every sweep from here on
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

TEST(ExecutionAudit, BufferCorruptionSurfacesThroughExecutionAudit) {
  Execution exec(ping_procs(4), 7);
  for (ProcId p = 0; p < 4; ++p) (void)exec.sending_step(p);
  MessageBuffer& buf = AuditTestAccess::buffer(exec);
  ASSERT_GT(buf.pending_count(), 0u);
  AuditTestAccess::bump_pending(buf);
  EXPECT_THROW(exec.audit(), std::logic_error);
}

}  // namespace
}  // namespace aa::sim
