// Batched delivery (Execution::deliver_plan_row + Process::on_receive_batch):
//  * the default on_receive_batch (loop of on_receive) is observationally
//    identical to the protocols' devirtualized overrides, for every
//    protocol kind — checked by running the same seeded executions with
//    the overrides masked behind a forwarding wrapper;
//  * deliver_plan_row's gather from the window store matches a
//    receiving_step-per-id loop on ascending, permuted, full, partial and
//    repeated rows, under every protocol (Byzantine equivocators
//    included), every named adversary, the chaos and censor wrappers and
//    crashes between rows: per-receiver delivery sequences, the event log,
//    lens captures, delivered/dropped counts and audit() agree (up to the
//    documented end-of-run granularity of Decision step/chain stamps),
//    also on an execution reset in place from another n;
//  * deliver_plan_row edge cases (empty row, retired messages, bad sender,
//    crashed receiver, no collected batch).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "lens/trace.hpp"
#include "protocols/byzantine.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::sim {
namespace {

using protocols::ProtocolKind;

/// Forwards everything to the wrapped process EXCEPT on_receive_batch,
/// which falls back to the Process default (per-envelope virtual loop) —
/// masking any batch override the inner protocol has.
class PerEnvelopeOnly final : public Process {
 public:
  explicit PerEnvelopeOnly(std::unique_ptr<Process> inner)
      : inner_(std::move(inner)) {}

  void on_start(Outbox& out) override { inner_->on_start(out); }
  void on_receive(const Envelope& env, Rng& rng, Outbox& out) override {
    inner_->on_receive(env, rng, out);
  }
  // on_receive_batch deliberately NOT overridden.
  void on_reset() override { inner_->on_reset(); }
  [[nodiscard]] int input() const override { return inner_->input(); }
  [[nodiscard]] int output() const override { return inner_->output(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  [[nodiscard]] int estimate() const override { return inner_->estimate(); }
  [[nodiscard]] const char* protocol_name() const override {
    return inner_->protocol_name();
  }

 private:
  std::unique_ptr<Process> inner_;
};

Execution make_exec(ProtocolKind kind, int n, int t, std::uint64_t seed,
                    bool mask_batch_override) {
  auto procs = protocols::make_processes(kind, t,
                                         protocols::split_inputs(n, 0.5));
  if (mask_batch_override) {
    for (auto& p : procs) {
      p = std::make_unique<PerEnvelopeOnly>(std::move(p));
    }
  }
  return Execution(std::move(procs), seed);
}

void expect_same_state(const Execution& a, const Execution& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.step_count(), b.step_count());
  EXPECT_EQ(a.decided_count(), b.decided_count());
  EXPECT_EQ(a.buffer().delivered_count(), b.buffer().delivered_count());
  for (ProcId p = 0; p < a.n(); ++p) {
    EXPECT_EQ(a.output(p), b.output(p)) << "proc " << p;
    EXPECT_EQ(a.process(p).round(), b.process(p).round()) << "proc " << p;
    EXPECT_EQ(a.process(p).estimate(), b.process(p).estimate())
        << "proc " << p;
    EXPECT_EQ(a.chain_depth(p), b.chain_depth(p)) << "proc " << p;
  }
}

TEST(BatchDelivery, OverridesMatchDefaultLoopForAllKinds) {
  const int n = 10;
  const int t = 1;
  for (const ProtocolKind kind :
       {ProtocolKind::Reset, ProtocolKind::BenOr, ProtocolKind::Bracha,
        ProtocolKind::Forgetful}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Execution with_override = make_exec(kind, n, t, seed, false);
      Execution default_loop = make_exec(kind, n, t, seed, true);
      adversary::FairWindowAdversary fair_a;
      adversary::FairWindowAdversary fair_b;
      run_until_all_decided(with_override, fair_a, t, 5000);
      run_until_all_decided(default_loop, fair_b, t, 5000);
      expect_same_state(with_override, default_loop);
    }
  }
}

TEST(BatchDelivery, OverridesMatchUnderAdversarialOrderAndResets) {
  const int n = 12;
  const int t = 2;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Execution with_override =
        make_exec(ProtocolKind::Reset, n, t, seed, false);
    Execution default_loop = make_exec(ProtocolKind::Reset, n, t, seed, true);
    {
      adversary::SplitKeeperAdversary keeper;
      for (int w = 0; w < 8; ++w)
        run_acceptable_window(with_override, keeper, t);
    }
    {
      adversary::SplitKeeperAdversary keeper;
      for (int w = 0; w < 8; ++w)
        run_acceptable_window(default_loop, keeper, t);
    }
    expect_same_state(with_override, default_loop);

    adversary::RandomWindowAdversary rnd_a(t, 0.3, Rng(seed));
    adversary::RandomWindowAdversary rnd_b(t, 0.3, Rng(seed));
    for (int w = 0; w < 8; ++w)
      run_acceptable_window(with_override, rnd_a, t);
    for (int w = 0; w < 8; ++w)
      run_acceptable_window(default_loop, rnd_b, t);
    expect_same_state(with_override, default_loop);
  }
}

/// Forwards everything to the wrapped process and logs every envelope it
/// is handed — per-envelope or in a batch — as (receiver, id).
class Recorder final : public Process {
 public:
  using Log = std::vector<std::pair<ProcId, MsgId>>;
  Recorder(std::unique_ptr<Process> inner, ProcId self, Log* log)
      : inner_(std::move(inner)), self_(self), log_(log) {}

  void on_start(Outbox& out) override { inner_->on_start(out); }
  void on_receive(const Envelope& env, Rng& rng, Outbox& out) override {
    log_->emplace_back(self_, env.id);
    inner_->on_receive(env, rng, out);
  }
  void on_receive_batch(std::span<const Envelope* const> envs, Rng& rng,
                        Outbox& out) override {
    for (const Envelope* env : envs) log_->emplace_back(self_, env->id);
    inner_->on_receive_batch(envs, rng, out);
  }
  void on_reset() override { inner_->on_reset(); }
  [[nodiscard]] int input() const override { return inner_->input(); }
  [[nodiscard]] int output() const override { return inner_->output(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  [[nodiscard]] int estimate() const override { return inner_->estimate(); }
  [[nodiscard]] const char* protocol_name() const override {
    return inner_->protocol_name();
  }

 private:
  std::unique_ptr<Process> inner_;
  ProcId self_;
  Log* log_;
};

/// An execution with the event log, every-window audits and the lens on,
/// whose processes log what they are handed.
struct Recorded {
  Recorder::Log log;
  lens::WindowTrace trace;
  std::unique_ptr<Execution> exec;

  Recorded(std::vector<std::unique_ptr<Process>> procs, std::uint64_t seed)
      : exec(std::make_unique<Execution>(wrap(std::move(procs)), seed,
                                         config())) {}

  /// Rebuild the execution in place (Execution::reset) with an empty log.
  void reset(std::vector<std::unique_ptr<Process>> procs, std::uint64_t seed) {
    log.clear();
    exec->reset(wrap(std::move(procs)), seed, config());
  }

 private:
  std::vector<std::unique_ptr<Process>> wrap(
      std::vector<std::unique_ptr<Process>> procs) {
    const auto n = static_cast<ProcId>(procs.size());
    for (ProcId p = 0; p < n; ++p) {
      auto& slot = procs[static_cast<std::size_t>(p)];
      slot = std::make_unique<Recorder>(std::move(slot), p, &log);
    }
    return procs;
  }
  ExecutionConfig config() {
    ExecutionConfig cfg;
    cfg.record_events = true;
    cfg.audit = true;
    cfg.lens = &trace;
    return cfg;
  }
};

/// The processes of one differential run: a protocol, or the reset
/// protocol with its first t processors turned Byzantine equivocators
/// (send() runs, so no window is broadcast-shaped).
std::vector<std::unique_ptr<Process>> differential_procs(const char* proto,
                                                         int n, int t) {
  const std::string name = proto;
  if (name == "byzantine") {
    auto procs = protocols::make_processes(ProtocolKind::Reset, t,
                                           protocols::split_inputs(n, 0.5));
    for (ProcId p = 0; p < t; ++p) {
      auto& slot = procs[static_cast<std::size_t>(p)];
      slot = std::make_unique<protocols::ByzantineProcess>(
          std::move(slot), protocols::ByzantineStrategy::Equivocate,
          static_cast<std::uint64_t>(p) + 1);
    }
    return procs;
  }
  const ProtocolKind kind = name == "reset"       ? ProtocolKind::Reset
                            : name == "forgetful" ? ProtocolKind::Forgetful
                            : name == "benor"     ? ProtocolKind::BenOr
                                                  : ProtocolKind::Bracha;
  return protocols::make_processes(kind, t, protocols::split_inputs(n, 0.5));
}

/// Row shapes: ascending full, ascending partial (t senders left out),
/// permuted full, permuted partial.
std::vector<ProcId> make_row(int n, int t, int shape, Rng& rng) {
  std::vector<ProcId> row;
  for (ProcId s = 0; s < n; ++s) row.push_back(s);
  for (std::size_t j = 0; j + 1 < row.size(); ++j) {
    const std::size_t k = j + rng.uniform_index(row.size() - j);
    std::swap(row[j], row[k]);
  }
  if (shape % 2 == 1) row.resize(static_cast<std::size_t>(n - t));
  if (shape < 2) std::sort(row.begin(), row.end());
  return row;
}

void expect_same_lens(const lens::WindowTrace& a, const lens::WindowTrace& b) {
  ASSERT_EQ(a.n(), b.n());
  for (ProcId s = 0; s < a.n(); ++s) {
    EXPECT_EQ(a.sent(s), b.sent(s)) << "sender " << s;
    EXPECT_EQ(a.decision_window(s), b.decision_window(s)) << "proc " << s;
    for (int k = 0; k < lens::WindowTrace::kBuckets; ++k) {
      EXPECT_EQ(a.delivery_hist(s, k), b.delivery_hist(s, k));
    }
    for (ProcId r = 0; r < a.n(); ++r) {
      EXPECT_EQ(a.delivered(s, r), b.delivered(s, r)) << s << "->" << r;
      EXPECT_EQ(a.suppressed(s, r), b.suppressed(s, r)) << s << "->" << r;
      EXPECT_EQ(a.first_heard_window(s, r), b.first_heard_window(s, r));
      EXPECT_EQ(a.first_heard_step(s, r), b.first_heard_step(s, r));
    }
  }
}

void expect_same_events(const Execution& a, const Execution& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    const Event& x = a.events()[i];
    const Event& y = b.events()[i];
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.proc, y.proc) << "event " << i;
    EXPECT_EQ(x.msg, y.msg) << "event " << i;
    EXPECT_EQ(x.window, y.window) << "event " << i;
  }
}

TEST(BatchDelivery, PlanRowMatchesPerIdReceivingSteps) {
  // Every row shape, every window, against one receiving_step per id in
  // plan order. Bracha stages several broadcasts per step, so its sender
  // segments hold more than one message. The Byzantine input publishes
  // point runs, and its batched execution first runs a window at a
  // smaller n and is then reset in place, so its pair index was sized for
  // another n.
  const int n = 10;
  const int t = 2;
  for (const char* proto : {"reset", "bracha", "byzantine"}) {
    const bool after_reset = std::string(proto) == "byzantine";
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(proto) + " / seed " + std::to_string(seed));
      const int first_n = after_reset ? 9 : n;
      Recorded batched(differential_procs(proto, first_n, t), seed);
      Recorded per_id(differential_procs(proto, n, t), seed);
      Execution& eb = *batched.exec;
      Execution& er = *per_id.exec;
      if (after_reset) {
        adversary::FairWindowAdversary fair;
        run_acceptable_window(eb, fair, t);
        ASSERT_EQ(eb.window_scratch().pair_begin.size(),
                  static_cast<std::size_t>(first_n * (first_n + 1)));
        batched.reset(differential_procs(proto, n, t), seed);
      }
      Rng rows_rng(seed * 31 + 7);
      int multi_message_pairs = 0;
      for (int w = 0; w < 12; ++w) {
        eb.begin_window_batch();
        er.begin_window_batch();
        for (ProcId p = 0; p < n; ++p) {
          eb.sending_step(p);
          er.sending_step(p);
        }
        const WindowBatch batch = er.window_batch();
        for (ProcId i = 0; i < n; ++i) {
          const std::vector<ProcId> row =
              make_row(n, t, (i + w) % 4, rows_rng);
          int expected = 0;
          for (const ProcId s : row) {
            if (batch.count(s, i) > 1) ++multi_message_pairs;
            for (const MsgId id : batch.from_to(s, i)) {
              er.receiving_step(id);
              ++expected;
            }
          }
          EXPECT_EQ(eb.deliver_plan_row(i, row), expected)
              << "window " << w << " receiver " << i;
        }
        EXPECT_NO_THROW(eb.audit());
        EXPECT_NO_THROW(er.audit());
        eb.end_window();
        er.end_window();
      }
      EXPECT_EQ(batched.log, per_id.log);
      expect_same_events(eb, er);
      expect_same_lens(batched.trace, per_id.trace);
      expect_same_state(eb, er);
      EXPECT_EQ(eb.buffer().dropped_count(), er.buffer().dropped_count());
      if (std::string(proto) == "bracha") {
        EXPECT_GT(multi_message_pairs, 0);
      }
    }
  }
}

/// A named adversary, optionally wrapped: "chaos" adds duplicated and
/// degenerate rows, "censor" the targeted-censorship layer.
std::unique_ptr<WindowAdversary> differential_adversary(
    const std::string& name, const std::string& wrapper, int t,
    std::uint64_t seed) {
  std::unique_ptr<WindowAdversary> adv =
      core::window_adversary_factory(name, t)(seed);
  if (wrapper == "chaos") {
    FaultPlan fault;
    fault.duplicate_row_prob = 0.5;
    fault.degenerate_prob = 0.25;
    fault.crash_prob = 0.1;
    fault.crash_budget = 1;
    fault.chaos_seed = 3;
    return std::make_unique<adversary::ChaosWindowAdversary>(std::move(adv),
                                                             fault, seed);
  }
  if (wrapper == "censor") {
    return std::make_unique<adversary::TargetedCensorAdversary>(
        std::move(adv), /*target=*/2);
  }
  return adv;
}

/// One differential run: the adversary plans each window on the batched
/// execution, both executions get the same (perturbed) rows — repeated
/// senders, truncated rows, now and then a per-id delivery before the
/// rows and a crash between rows — and the reference delivers every row
/// as one receiving_step per not-yet-delivered id in plan order.
void run_differential(const char* proto, const std::string& adv_name,
                      const std::string& wrapper, std::uint64_t seed) {
  SCOPED_TRACE(std::string(proto) + " / " + adv_name + " / " + wrapper +
               " / seed " + std::to_string(seed));
  const int n = 10;
  const int t = 1;
  Recorded batched(differential_procs(proto, n, t), seed);
  Recorded per_id(differential_procs(proto, n, t), seed);
  Execution& eb = *batched.exec;
  Execution& er = *per_id.exec;
  std::unique_ptr<WindowAdversary> adv =
      differential_adversary(adv_name, wrapper, t, seed);
  adv->prepare(n, t);
  WindowPlan plan;
  plan.reset(n);
  Rng perturb(seed * 1000 + 17);
  for (int w = 0; w < 14; ++w) {
    eb.begin_window_batch();
    er.begin_window_batch();
    for (ProcId p = 0; p < n; ++p) {
      ASSERT_EQ(eb.sending_step(p).size(), er.sending_step(p).size());
    }
    const WindowBatch batch = eb.window_batch();
    ASSERT_EQ(batch.size(), er.window_batch().size());
    (void)adv->plan_window_into(eb, batch, plan);
    validate_window_plan(plan, n, t);

    // Reference bookkeeping: which window messages were delivered.
    std::vector<bool> done(batch.size(), false);
    const auto deliver_ref = [&](MsgId id) {
      const auto off = static_cast<std::size_t>(id - batch.ids()[0]);
      if (done[off]) return;
      done[off] = true;
      er.receiving_step(id);
    };
    if (batch.size() > 0 && perturb.uniform_index(5) == 0) {
      const MsgId id = batch.ids()[perturb.uniform_index(batch.size())];
      if (!eb.crashed(batch.envelope(id).receiver)) {
        eb.receiving_step(id);
        deliver_ref(id);
      }
    }
    const int crash_at = perturb.uniform_index(4) == 0
                             ? static_cast<int>(perturb.uniform_index(n))
                             : -1;
    for (ProcId i = 0; i < n; ++i) {
      if (i == crash_at) {
        const auto victim = static_cast<ProcId>(perturb.uniform_index(n));
        eb.crash(victim);
        er.crash(victim);
      }
      if (eb.crashed(i)) continue;
      std::vector<ProcId> row = plan.delivery_order[static_cast<std::size_t>(i)];
      const std::size_t shape = perturb.uniform_index(4);
      if (shape == 1 && !row.empty()) {
        // Repeat senders already in the row.
        for (int k = 0; k < 3; ++k) {
          row.insert(row.begin() + static_cast<std::ptrdiff_t>(
                                       perturb.uniform_index(row.size() + 1)),
                     row[perturb.uniform_index(row.size())]);
        }
      } else if (shape == 2) {
        row.resize(perturb.uniform_index(row.size() + 1));  // partial row
      }
      int expected = 0;
      for (const ProcId s : row) {
        for (const MsgId id : batch.from_to(s, i)) {
          const auto off = static_cast<std::size_t>(id - batch.ids()[0]);
          if (!done[off]) ++expected;
          deliver_ref(id);
        }
      }
      ASSERT_EQ(eb.deliver_plan_row(i, row), expected)
          << "window " << w << " receiver " << i;
    }
    ASSERT_NO_THROW(eb.audit());
    ASSERT_NO_THROW(er.audit());
    for (const ProcId p : plan.resets) {
      if (eb.crashed(p)) continue;
      eb.resetting_step(p);
      er.resetting_step(p);
    }
    for (const ProcId p : adv->window_crashes()) {
      eb.crash(p);
      er.crash(p);
    }
    eb.end_window();
    er.end_window();
  }
  EXPECT_EQ(batched.log, per_id.log);
  expect_same_events(eb, er);
  expect_same_lens(batched.trace, per_id.trace);
  expect_same_state(eb, er);
  EXPECT_EQ(eb.buffer().total_sent(), er.buffer().total_sent());
  EXPECT_EQ(eb.buffer().dropped_count(), er.buffer().dropped_count());
  EXPECT_EQ(eb.buffer().pending_count(), 0u);
  EXPECT_EQ(eb.buffer().delivered_count() + eb.buffer().dropped_count(),
            eb.buffer().total_sent());
  EXPECT_GT(eb.buffer().delivered_count(), 0u);
}

TEST(BatchDelivery, WindowStoreMatchesPerIdReferenceEverywhere) {
  for (const char* proto :
       {"reset", "forgetful", "benor", "bracha", "byzantine"}) {
    for (const char* adv :
         {"fair", "silencer", "split-keeper", "reset-storm", "random"}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        run_differential(proto, adv, "", seed);
      }
    }
  }
  for (const char* proto : {"reset", "bracha", "byzantine"}) {
    for (const char* adv : {"fair", "split-keeper", "random"}) {
      for (const char* wrapper : {"chaos", "censor"}) {
        run_differential(proto, adv, wrapper, 5);
      }
    }
  }
}

TEST(BatchDelivery, WindowRefusedWhileThePreviousIsPending) {
  // begin_window_batch refuses to open a window over one that was never
  // closed — pending window messages, or arena messages — and opens again
  // once end_window settled it.
  const int n = 6;
  Execution e = make_exec(ProtocolKind::Reset, n, 1, 3, false);
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  ASSERT_GT(e.buffer().pending_count(), 0u);
  EXPECT_THROW(e.begin_window_batch(), std::logic_error);
  std::vector<ProcId> all;
  for (ProcId s = 0; s < n; ++s) all.push_back(s);
  e.deliver_plan_row(0, all);
  EXPECT_THROW(e.begin_window_batch(), std::logic_error);
  e.end_window();
  EXPECT_NO_THROW(e.begin_window_batch());
}

TEST(BatchDelivery, PlanRowEdgeCases) {
  const int n = 8;
  const int t = 1;
  Execution e = make_exec(ProtocolKind::Reset, n, t, 9, false);
  std::vector<ProcId> all;
  for (ProcId s = 0; s < n; ++s) all.push_back(s);
  // No batch collected for the current window.
  EXPECT_THROW(e.deliver_plan_row(2, all), std::logic_error);

  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  const std::size_t pending = e.buffer().pending_count();
  // Empty row: no-op.
  EXPECT_EQ(e.deliver_plan_row(2, {}), 0);
  // A sender id out of range is rejected before any message is consumed.
  const std::vector<ProcId> bad{0, 1, n};
  EXPECT_THROW(e.deliver_plan_row(2, bad), std::invalid_argument);
  EXPECT_EQ(e.buffer().pending_count(), pending);
  // A repeated sender delivers its messages once.
  const std::vector<ProcId> repeated{3, 1, 3};
  EXPECT_EQ(e.deliver_plan_row(2, repeated), 2);
  // Those messages are retired: a second run over them is a no-op, and the
  // rest of the row still delivers.
  EXPECT_EQ(e.deliver_plan_row(2, repeated), 0);
  EXPECT_EQ(e.deliver_plan_row(2, all), n - 2);
  EXPECT_EQ(e.buffer().pending_count(), pending - static_cast<std::size_t>(n));
  EXPECT_NO_THROW(e.audit());
  // Delivery to a crashed receiver is a driver bug.
  e.crash(0);
  EXPECT_THROW(e.deliver_plan_row(0, all), std::logic_error);
}

TEST(BatchDelivery, PartlyDeliveredRowKeepsPlanOrder) {
  // Messages of the row delivered earlier in the window leave their
  // segments short; the rest must still arrive in plan order, gap-free.
  const int n = 8;
  const int t = 1;
  ExecutionConfig cfg;
  cfg.record_events = true;
  Execution e(protocols::make_processes(ProtocolKind::Reset, t,
                                        protocols::split_inputs(n, 0.5)),
              4, cfg);
  e.begin_window_batch();
  for (ProcId p = 0; p < n; ++p) e.sending_step(p);
  const WindowBatch batch = e.window_batch();
  e.receiving_step(batch.from_to(5, 2)[0]);
  e.receiving_step(batch.from_to(0, 2)[0]);
  std::vector<ProcId> descending;
  std::vector<MsgId> expected;
  for (ProcId s = n - 1; s >= 0; --s) {
    descending.push_back(s);
    if (s != 5 && s != 0) expected.push_back(batch.from_to(s, 2)[0]);
  }
  const std::size_t before = e.events().size();
  EXPECT_EQ(e.deliver_plan_row(2, descending), n - 2);
  std::vector<MsgId> seen;
  for (std::size_t i = before; i < e.events().size(); ++i) {
    seen.push_back(e.events()[i].msg);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_NO_THROW(e.audit());
}

TEST(BatchDelivery, CollectionRequiresAnEmptyWindow) {
  // The delivery walk takes every window message of a full-cover row, so
  // arming collection after the window already published is refused.
  const int n = 8;
  Execution e = make_exec(ProtocolKind::Reset, n, 1, 3, false);
  e.sending_step(0);
  EXPECT_THROW(e.begin_window_batch(), std::logic_error);
}

}  // namespace
}  // namespace aa::sim
