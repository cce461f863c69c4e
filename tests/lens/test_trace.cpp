#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "lens/accountability.hpp"
#include "lens/trace.hpp"
#include "protocols/byzantine.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"
#include "util/rng.hpp"

namespace aa::lens {
namespace {

core::Experiment window_spec(int n, int t, bool lens = true) {
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = 400;
  spec.stop = core::StopCondition::kAllDecided;
  spec.lens = lens;
  return spec;
}

// ---- capture under a real engine run ---------------------------------------

TEST(WindowTrace, FairRunTalliesAreCleanAndComplete) {
  const int n = 8;
  const int t = 1;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  adversary::FairWindowAdversary fair;
  const core::WindowRunResult r = runner.run_window(fair, 42, scratch);
  ASSERT_TRUE(r.all_decided);
  ASSERT_TRUE(scratch.trace.has_value());
  const WindowTrace& trace = *scratch.trace;

  EXPECT_EQ(trace.n(), n);
  EXPECT_EQ(trace.deciders(), n);
  for (sim::ProcId s = 0; s < n; ++s) {
    EXPECT_GT(trace.sent(s), 0) << "sender " << s;
    EXPECT_EQ(trace.equivocations(s), 0) << "sender " << s;
    // Fair delivery: nothing is ever swept away undelivered.
    EXPECT_EQ(trace.suppressed_total(s), 0) << "sender " << s;
    EXPECT_GT(trace.delivered_total(s), 0) << "sender " << s;
    // Every decider had heard every sender — full confirmation evidence.
    EXPECT_EQ(trace.confirm_count(s), n) << "sender " << s;
    EXPECT_GE(trace.decision_window(s), 0) << "proc " << s;
    for (sim::ProcId rcv = 0; rcv < n; ++rcv) {
      EXPECT_GE(trace.first_heard_window(s, rcv), 0);
      EXPECT_GE(trace.first_heard_step(s, rcv), 0);
    }
  }
}

TEST(WindowTrace, BeginTrialClearsPreviousTallies) {
  const core::Runner runner(window_spec(6, 1));
  core::WorkerScratch scratch;
  adversary::FairWindowAdversary fair;
  (void)runner.run_window(fair, 1, scratch);
  ASSERT_TRUE(scratch.trace.has_value());
  ASSERT_GT(scratch.trace->sent(0), 0);
  // Re-arming (what Runner::prepare does per trial) must zero everything.
  scratch.trace->begin_trial(6);
  for (sim::ProcId s = 0; s < 6; ++s) {
    EXPECT_EQ(scratch.trace->sent(s), 0);
    EXPECT_EQ(scratch.trace->delivered_total(s), 0);
    EXPECT_EQ(scratch.trace->suppressed_total(s), 0);
    EXPECT_EQ(scratch.trace->decision_window(s), -1);
  }
  EXPECT_EQ(scratch.trace->deciders(), 0);
}

TEST(WindowTrace, LensOffProducesIdenticalRunResult) {
  const int n = 8;
  const int t = 1;
  const core::Runner with(window_spec(n, t, /*lens=*/true));
  const core::Runner without(window_spec(n, t, /*lens=*/false));
  for (const std::uint64_t seed : {7ULL, 11ULL, 99ULL}) {
    core::WorkerScratch sa;
    core::WorkerScratch sb;
    adversary::SplitKeeperAdversary adv_a;
    adversary::SplitKeeperAdversary adv_b;
    const core::WindowRunResult a = with.run_window(adv_a, seed, sa);
    const core::WindowRunResult b = without.run_window(adv_b, seed, sb);
    EXPECT_EQ(a.decided, b.decided);
    EXPECT_EQ(a.all_decided, b.all_decided);
    EXPECT_EQ(a.decision, b.decision);
    EXPECT_EQ(a.windows_total, b.windows_total);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.windows_to_first, b.windows_to_first);
    EXPECT_FALSE(sb.trace.has_value());
  }
}

// ---- lens hooks vs the window store ----------------------------------------

TEST(WindowTrace, HookCountsExactUnderRecyclingAndRangeRetirement) {
  // 200 windows of n×n publication cycle through the window store's
  // recycled run vectors, each window on a fresh id range. The lens must
  // still account for every message exactly once: published = delivered
  // + suppressed, per sender and in total.
  const int n = 8;
  const int t = 1;
  WindowTrace trace;
  trace.begin_trial(n);
  sim::ExecutionConfig cfg;
  cfg.lens = &trace;
  sim::Execution e(
      protocols::make_processes(protocols::ProtocolKind::Reset, t,
                                protocols::split_inputs(n, 0.5)),
      9, cfg);
  adversary::SilencerWindowAdversary sil({0});  // sender 0 always swept
  for (int w = 0; w < 200; ++w) sim::run_acceptable_window(e, sil, t);
  ASSERT_EQ(e.buffer().pending_count(), 0u);
  std::int64_t sent = 0;
  std::int64_t delivered = 0;
  std::int64_t suppressed = 0;
  for (sim::ProcId s = 0; s < n; ++s) {
    sent += trace.sent(s);
    delivered += trace.delivered_total(s);
    suppressed += trace.suppressed_total(s);
    EXPECT_EQ(trace.sent(s),
              trace.delivered_total(s) + trace.suppressed_total(s))
        << "sender " << s;
  }
  EXPECT_EQ(static_cast<std::size_t>(sent), e.buffer().total_sent());
  EXPECT_EQ(static_cast<std::size_t>(delivered),
            e.buffer().delivered_count());
  EXPECT_EQ(static_cast<std::size_t>(suppressed),
            e.buffer().dropped_count());
  // The silenced sender's every message was a sweep-time suppression.
  EXPECT_EQ(trace.delivered_total(0), 0);
  EXPECT_EQ(trace.suppressed_total(0), trace.sent(0));
}

TEST(WindowTrace, SuppressHooksFireOncePerUndeliveredWindowMessage) {
  // One window delivered piecemeal — a per-id receiving step, a row with a
  // repeated sender, a row over an already-delivered message — and closed
  // with receivers 2.. never served. The suppression fold must count
  // exactly one suppression per undelivered (sender → receiver) message,
  // and none for one that was delivered.
  const int n = 6;
  const int t = 1;
  WindowTrace trace;
  sim::ExecutionConfig cfg;
  cfg.lens = &trace;
  sim::Execution e(
      protocols::make_processes(protocols::ProtocolKind::Bracha, t,
                                protocols::split_inputs(n, 0.5)),
      5, cfg);
  e.begin_window_batch();
  for (sim::ProcId p = 0; p < n; ++p) e.sending_step(p);
  const sim::WindowBatch batch = e.window_batch();
  std::vector<std::int64_t> expect(static_cast<std::size_t>(n * n), 0);
  for (sim::ProcId s = 0; s < n; ++s) {
    for (sim::ProcId r = 0; r < n; ++r) {
      expect[static_cast<std::size_t>(s * n + r)] = batch.count(s, r);
    }
  }
  e.receiving_step(batch.from_to(2, 1)[0]);
  --expect[static_cast<std::size_t>(2 * n + 1)];
  const std::vector<sim::ProcId> repeated{3, 1, 3};
  e.deliver_plan_row(0, repeated);
  expect[static_cast<std::size_t>(3 * n + 0)] = 0;
  expect[static_cast<std::size_t>(1 * n + 0)] = 0;
  std::vector<sim::ProcId> all;
  for (sim::ProcId s = 0; s < n; ++s) all.push_back(s);
  e.deliver_plan_row(1, all);
  for (sim::ProcId s = 0; s < n; ++s) {
    expect[static_cast<std::size_t>(s * n + 1)] = 0;
  }
  e.end_window();

  std::int64_t suppressed = 0;
  for (sim::ProcId s = 0; s < n; ++s) {
    for (sim::ProcId r = 0; r < n; ++r) {
      EXPECT_EQ(trace.suppressed(s, r), expect[static_cast<std::size_t>(s * n + r)])
          << s << "->" << r;
      suppressed += trace.suppressed(s, r);
    }
    EXPECT_EQ(trace.sent(s),
              trace.delivered_total(s) + trace.suppressed_total(s))
        << "sender " << s;
  }
  EXPECT_GT(suppressed, 0);
  EXPECT_EQ(static_cast<std::size_t>(suppressed), e.buffer().dropped_count());
  EXPECT_EQ(e.buffer().pending_count(), 0u);
}

// ---- run folds against the per-envelope hooks ------------------------------

/// The lens's delivery, suppression and decision hooks as they were when
/// the engine called them once per envelope, on the same flat layout: the
/// reference that WindowTrace's run folds (on_deliver_run,
/// on_suppress_run) must match view for view.
struct PerEnvelopeTrace {
  static constexpr int kBuckets = WindowTrace::kBuckets;
  int n = 0;
  std::vector<std::int64_t> confirm_count, confirm_window_sum,
      confirm_step_sum, delivered, suppressed, first_window, first_step,
      decision_window, delivery_hist, confirm_hist;

  void begin_trial(int procs) {
    n = procs;
    const auto nn = static_cast<std::size_t>(n);
    const auto hb = nn * static_cast<std::size_t>(kBuckets);
    confirm_count.assign(nn, 0);
    confirm_window_sum.assign(nn, 0);
    confirm_step_sum.assign(nn, 0);
    delivered.assign(nn * nn, 0);
    suppressed.assign(nn * nn, 0);
    first_window.assign(nn * nn, -1);
    first_step.assign(nn * nn, -1);
    decision_window.assign(nn, -1);
    delivery_hist.assign(hb, 0);
    confirm_hist.assign(hb, 0);
  }
  [[nodiscard]] std::size_t pair(sim::ProcId s, sim::ProcId r) const {
    return static_cast<std::size_t>(s * n + r);
  }
  static std::size_t hidx(sim::ProcId s, std::int64_t span) {
    if (span < 0) span = 0;
    const std::int64_t b = span >= kBuckets ? kBuckets - 1 : span;
    return static_cast<std::size_t>(s * kBuckets + b);
  }
  void on_deliver(const sim::Envelope& env, std::int64_t window,
                  std::int64_t step) {
    const std::size_t pr = pair(env.sender, env.receiver);
    ++delivered[pr];
    if (first_window[pr] < 0) {
      first_window[pr] = window;
      first_step[pr] = step;
    }
    ++delivery_hist[hidx(env.sender, window - env.window)];
  }
  void on_suppress(sim::ProcId sender, sim::ProcId receiver) {
    ++suppressed[pair(sender, receiver)];
  }
  void on_decision(sim::ProcId p, std::int64_t window, std::int64_t step) {
    decision_window[static_cast<std::size_t>(p)] = window;
    for (sim::ProcId s = 0; s < n; ++s) {
      const std::size_t pr = pair(s, p);
      if (first_window[pr] < 0) continue;
      const std::int64_t wspan = window - first_window[pr];
      ++confirm_count[static_cast<std::size_t>(s)];
      confirm_window_sum[static_cast<std::size_t>(s)] += wspan;
      confirm_step_sum[static_cast<std::size_t>(s)] += step - first_step[pr];
      ++confirm_hist[hidx(s, wspan)];
    }
  }
};

/// Forwards to `inner` and keeps every window message the driver hands it
/// at planning time (ids ascend across windows), so the reference can be
/// replayed from the event log once the run is over.
class BatchRecorder final : public sim::WindowAdversary {
 public:
  explicit BatchRecorder(std::unique_ptr<sim::WindowAdversary> inner)
      : inner_(std::move(inner)) {}
  void prepare(int n, int t) override { inner_->prepare(n, t); }
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override {
    for (const sim::MsgId id : batch.ids()) sent.push_back(batch.envelope(id));
    return inner_->plan_window_into(exec, batch, plan);
  }
  [[nodiscard]] std::span<const sim::ProcId> window_crashes() const override {
    return inner_->window_crashes();
  }
  [[nodiscard]] bool can_crash() const override { return inner_->can_crash(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::vector<sim::Envelope> sent;

 private:
  std::unique_ptr<sim::WindowAdversary> inner_;
};

/// The campaign's chaos presets (core/campaign.cpp's chaos_plan_preset).
sim::FaultPlan chaos_preset(const std::string& name) {
  sim::FaultPlan fp;
  if (name == "censor-light") fp.censor_prob = 0.25;
  if (name == "resets") fp.reset_prob = 0.5;
  if (name == "crashy") {
    fp.crash_prob = 0.2;
    fp.crash_budget = 1;
  }
  return fp;
}

struct FoldCoverage {
  std::int64_t delivered = 0;
  std::int64_t suppressed = 0;
  std::int64_t decisions = 0;
  std::int64_t late_confirmations = 0;  ///< confirm_window_sum > 0
};

/// One trial run twice on the same seed: lens armed with no event log
/// (the campaign's delivery path), and with the event log and a
/// BatchRecorder, replayed into the per-envelope reference (event i is
/// step i + 1; a decision at step k follows delivery k). Returns "" when
/// every view agrees, else the first difference.
std::string diff_folds_against_reference(
    protocols::ProtocolKind kind, int memory_k, bool equivocators, int n,
    const std::string& adversary, const std::string& chaos,
    std::uint64_t seed, FoldCoverage& cov) {
  const int t = n / 6;
  const int budget = 60;
  const sim::FaultPlan fp = chaos_preset(chaos);
  const core::WindowAdversaryFactory base =
      core::window_adversary_factory(adversary, t);
  const auto make_adversary = [&]() -> std::unique_ptr<sim::WindowAdversary> {
    if (!fp.enabled()) return base(seed);
    return std::make_unique<adversary::ChaosWindowAdversary>(base(seed), fp,
                                                             seed);
  };
  const auto make_procs = [&] {
    const std::vector<int> inputs = protocols::split_inputs(n, 0.5);
    if (equivocators) {
      return protocols::make_byzantine_processes(
          kind, t, inputs, t, protocols::ByzantineStrategy::Equivocate, seed);
    }
    return protocols::make_processes(kind, t, inputs, std::nullopt, memory_k);
  };

  WindowTrace trace;
  sim::ExecutionConfig lens_cfg;
  lens_cfg.lens = &trace;
  sim::Execution lensed(make_procs(), seed, lens_cfg);
  const std::unique_ptr<sim::WindowAdversary> adv = make_adversary();
  (void)sim::run_until_settled(lensed, *adv, t, budget);

  sim::ExecutionConfig log_cfg;
  log_cfg.record_events = true;
  sim::Execution logged(make_procs(), seed, log_cfg);
  BatchRecorder recorder(make_adversary());
  (void)sim::run_until_settled(logged, recorder, t, budget);
  if (logged.step_count() != lensed.step_count() ||
      logged.decided_count() != lensed.decided_count()) {
    return "the two runs diverged";
  }

  PerEnvelopeTrace ref;
  ref.begin_trial(n);
  const std::vector<sim::Envelope>& sent = recorder.sent;
  std::vector<std::uint8_t> done(sent.size(), 0);
  const std::vector<sim::Decision>& decisions = logged.decisions();
  std::size_t next_decision = 0;
  const auto decide_through = [&](std::int64_t step) {
    for (; next_decision < decisions.size() &&
           decisions[next_decision].step <= step;
         ++next_decision) {
      const sim::Decision& d = decisions[next_decision];
      ref.on_decision(d.proc, d.window, d.step);
    }
  };
  decide_through(0);
  const std::vector<sim::Event>& events = logged.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sim::Event& e = events[i];
    const auto step = static_cast<std::int64_t>(i) + 1;
    if (e.kind == sim::StepKind::Receive) {
      const auto it = std::lower_bound(
          sent.begin(), sent.end(), e.msg,
          [](const sim::Envelope& env, sim::MsgId id) { return env.id < id; });
      if (it == sent.end() || it->id != e.msg) return "unrecorded delivery";
      done[static_cast<std::size_t>(it - sent.begin())] = 1;
      ref.on_deliver(*it, e.window, step);
    }
    decide_through(step);
  }
  // Every window was closed, so whatever it did not deliver was dropped.
  for (std::size_t j = 0; j < sent.size(); ++j) {
    if (done[j] == 0) ref.on_suppress(sent[j].sender, sent[j].receiver);
  }

  const auto differ = [](const char* view, sim::ProcId s, std::int64_t key) {
    return std::string(view) + " differs at sender " + std::to_string(s) +
           ", " + std::to_string(key);
  };
  for (sim::ProcId s = 0; s < n; ++s) {
    const auto si = static_cast<std::size_t>(s);
    for (sim::ProcId r = 0; r < n; ++r) {
      const std::size_t pr = ref.pair(s, r);
      if (trace.delivered(s, r) != ref.delivered[pr]) {
        return differ("delivered", s, r);
      }
      if (trace.suppressed(s, r) != ref.suppressed[pr]) {
        return differ("suppressed", s, r);
      }
      if (trace.first_heard_window(s, r) != ref.first_window[pr]) {
        return differ("first_heard_window", s, r);
      }
      if (trace.first_heard_step(s, r) != ref.first_step[pr]) {
        return differ("first_heard_step", s, r);
      }
      cov.delivered += ref.delivered[pr];
      cov.suppressed += ref.suppressed[pr];
    }
    for (int b = 0; b < WindowTrace::kBuckets; ++b) {
      const std::size_t h = si * WindowTrace::kBuckets +
                            static_cast<std::size_t>(b);
      if (trace.delivery_hist(s, b) != ref.delivery_hist[h]) {
        return differ("delivery_hist", s, b);
      }
      if (trace.confirm_hist(s, b) != ref.confirm_hist[h]) {
        return differ("confirm_hist", s, b);
      }
    }
    if (trace.confirm_count(s) != ref.confirm_count[si] ||
        trace.confirm_window_sum(s) != ref.confirm_window_sum[si] ||
        trace.confirm_step_sum(s) != ref.confirm_step_sum[si]) {
      return differ("confirmation sums", s, 0);
    }
    if (trace.decision_window(s) != ref.decision_window[si]) {
      return differ("decision_window", s, 0);
    }
    if (ref.confirm_window_sum[si] > 0) ++cov.late_confirmations;
  }
  cov.decisions += static_cast<std::int64_t>(decisions.size());
  return "";
}

TEST(LensFoldDifferential, RunFoldsMatchPerEnvelopeReference) {
  // The honest protocols broadcast only; Bracha's runs hold several
  // broadcasts, and t equivocating reset senders add point runs, the other
  // layout the suppression fold reads.
  struct Proto {
    protocols::ProtocolKind kind;
    int memory_k;
    bool equivocators;
    const char* name;
  };
  const Proto protos[] = {
      {protocols::ProtocolKind::Reset, 0, false, "reset"},
      {protocols::ProtocolKind::Forgetful, 0, false, "forgetful k=0"},
      {protocols::ProtocolKind::Forgetful, 3, false, "forgetful k=3"},
      {protocols::ProtocolKind::BenOr, 0, false, "benor"},
      {protocols::ProtocolKind::Bracha, 0, false, "bracha"},
      {protocols::ProtocolKind::Reset, 0, true, "reset + equivocators"},
  };
  FoldCoverage cov;
  for (const Proto& proto : protos) {
    for (const char* adv : {"fair", "random", "split-keeper", "reset-storm"}) {
      for (const char* chaos : {"none", "censor-light", "resets", "crashy"}) {
        for (const int n : {7, 13}) {
          for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string(proto.name) + " " + adv + " " + chaos +
                         " n=" + std::to_string(n) +
                         " seed=" + std::to_string(seed));
            ASSERT_EQ(diff_folds_against_reference(proto.kind, proto.memory_k,
                                                   proto.equivocators, n, adv,
                                                   chaos, seed, cov),
                      "");
          }
        }
      }
    }
  }
  // The grid must exercise every view it compares.
  EXPECT_GT(cov.delivered, 50000);
  EXPECT_GT(cov.suppressed, 2000);
  EXPECT_GT(cov.decisions, 1000);
  EXPECT_GT(cov.late_confirmations, 1000);
}

// ---- targeted censorship ---------------------------------------------------

TEST(TargetedCensorAdversary, StaysAcceptableAndStarvesOnlyTheTarget) {
  const int n = 8;
  const int t = 1;
  const sim::ProcId target = 2;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  adversary::TargetedCensorAdversary censor(
      std::make_unique<adversary::FairWindowAdversary>(), target);
  EXPECT_EQ(censor.target(), target);
  // The driver re-validates every kUpdated plan (the censor always answers
  // kUpdated), so a completed run IS the Definition-1 acceptance proof.
  const core::WindowRunResult r = runner.run_window(censor, 5, scratch);
  ASSERT_TRUE(r.decided);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  ASSERT_TRUE(scratch.trace.has_value());
  const WindowTrace& trace = *scratch.trace;
  // Fair rows have full slack, so the censor erased the target everywhere:
  // nothing from the target landed, everything else flowed untouched.
  EXPECT_EQ(trace.delivered_total(target), 0);
  EXPECT_GT(trace.suppressed_total(target), 0);
  for (sim::ProcId s = 0; s < n; ++s) {
    if (s == target) continue;
    EXPECT_GT(trace.delivered_total(s), 0) << "sender " << s;
    EXPECT_EQ(trace.suppressed_total(s), 0) << "sender " << s;
  }
}

TEST(TargetedCensorAdversary, RespectsTheFloorWhenRowsHaveNoSlack) {
  // Silencer already runs rows at the n − t floor: the censor must leave
  // such rows alone (erasing would break Definition 1), so the run still
  // validates and the target still gets through on floor rows.
  const int n = 16;  // canonical thresholds need 6t < n
  const int t = 2;
  const sim::ProcId target = 15;  // not among the silencer's silenced [0, t)
  std::vector<sim::ProcId> silenced;
  for (int i = 0; i < t; ++i) silenced.push_back(i);
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  adversary::TargetedCensorAdversary censor(
      std::make_unique<adversary::SilencerWindowAdversary>(silenced), target);
  const core::WindowRunResult r = runner.run_window(censor, 3, scratch);
  ASSERT_TRUE(r.decided);
  ASSERT_TRUE(scratch.trace.has_value());
  // Silencer rows are exactly the non-silenced n − t senders — no slack —
  // so the target is delivered, not suppressed.
  EXPECT_GT(scratch.trace->delivered_total(target), 0);
  EXPECT_EQ(scratch.trace->suppressed_total(target), 0);
}

// ---- blame report ground truth ---------------------------------------------

TEST(Accountability, BlamesTheInjectedCensorTarget) {
  const int n = 8;
  const int t = 1;
  const sim::ProcId target = 2;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    adversary::TargetedCensorAdversary censor(
        std::make_unique<adversary::FairWindowAdversary>(), target);
    (void)runner.run_window(censor, seed, scratch);
    ASSERT_TRUE(scratch.trace.has_value());
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  ASSERT_EQ(rep.n, n);
  EXPECT_EQ(rep.blamed_censored, (std::vector<sim::ProcId>{target}));
  EXPECT_TRUE(rep.blamed_equivocators.empty());
  EXPECT_GT(rep.senders[static_cast<std::size_t>(target)].censorship_score,
            0.1);
}

TEST(WindowTrace, EquivocationCountMatchesPairwiseDefinition) {
  // A message equivocates when an EARLIER message of its run has the same
  // (round, kind, aux) key and the other bit value; non-bit values never
  // take part. Random runs over a small key space, against that pairwise
  // definition evaluated directly. Runs are point items, or (every other
  // run) broadcast items, which the definition reads as their n copies.
  const int n = 5;
  WindowTrace trace;
  trace.begin_trial(n);
  Rng rng(8);
  std::vector<std::int64_t> expect(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> expect_sent(static_cast<std::size_t>(n), 0);
  for (int run = 0; run < 400; ++run) {
    const auto sender = static_cast<sim::ProcId>(run % n);
    const bool broadcasts = (run / n) % 2 == 1;
    std::vector<sim::StagedMessage> items(rng.uniform_index(12));
    for (sim::StagedMessage& item : items) {
      item.to = broadcasts ? sim::kEveryone
                           : static_cast<sim::ProcId>(rng.uniform_index(n));
      item.msg.round = static_cast<std::int32_t>(rng.uniform_index(2));
      item.msg.kind = static_cast<std::int32_t>(rng.uniform_index(2));
      item.msg.aux = static_cast<std::int32_t>(rng.uniform_index(2));
      item.msg.value = static_cast<std::int32_t>(rng.uniform_index(3)) - 1;
    }
    std::vector<sim::Message> copies;
    for (const sim::StagedMessage& item : items) {
      const int c = item.to == sim::kEveryone ? n : 1;
      copies.insert(copies.end(), static_cast<std::size_t>(c), item.msg);
    }
    expect_sent[static_cast<std::size_t>(sender)] +=
        static_cast<std::int64_t>(copies.size());
    for (std::size_t i = 0; i < copies.size(); ++i) {
      const sim::Message& mi = copies[i];
      if (mi.value != 0 && mi.value != 1) continue;
      for (std::size_t j = 0; j < i; ++j) {
        const sim::Message& mj = copies[j];
        if (mj.round == mi.round && mj.kind == mi.kind && mj.aux == mi.aux &&
            mj.value == 1 - mi.value) {
          ++expect[static_cast<std::size_t>(sender)];
          break;
        }
      }
    }
    trace.on_publish(sender, items, 0);
  }
  for (sim::ProcId s = 0; s < n; ++s) {
    EXPECT_EQ(trace.equivocations(s), expect[static_cast<std::size_t>(s)])
        << "sender " << s;
    EXPECT_EQ(trace.sent(s), expect_sent[static_cast<std::size_t>(s)])
        << "sender " << s;
    EXPECT_GT(trace.equivocations(s), 0) << "sender " << s;
  }
}

TEST(Accountability, BlamesByzantineEquivocatorsExactly) {
  const int n = 16;  // canonical thresholds need 6t < n
  const int t = 2;
  const int byz = 2;  // make_byzantine_processes corrupts procs [0, byz)
  core::Experiment spec = window_spec(n, t);
  spec.byzantine = core::ByzantineSpec{
      byz, protocols::ByzantineStrategy::Equivocate, {}};
  const core::Runner runner(spec);
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    adversary::FairWindowAdversary fair;
    (void)runner.run_byzantine(fair, seed, scratch);
    ASSERT_TRUE(scratch.trace.has_value());
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  EXPECT_EQ(rep.blamed_equivocators, (std::vector<sim::ProcId>{0, 1}));
  for (sim::ProcId s = byz; s < n; ++s) {
    EXPECT_EQ(rep.senders[static_cast<std::size_t>(s)].equivocations, 0)
        << "honest sender " << s;
  }
}

TEST(Accountability, FaultFreeFairRunsBlameNobody) {
  const int n = 8;
  const int t = 1;
  const core::Runner runner(window_spec(n, t));
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    adversary::FairWindowAdversary fair;
    (void)runner.run_window(fair, seed, scratch);
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  EXPECT_TRUE(rep.blamed_equivocators.empty());
  EXPECT_TRUE(rep.blamed_censored.empty());
  for (const SenderLatency& row : rep.senders) {
    EXPECT_EQ(row.censorship_score, 0.0);
    EXPECT_EQ(row.delivered_share, 1.0);
    EXPECT_EQ(row.confirmed_share, 1.0);
    EXPECT_GT(row.confirm_count, 0);
  }
}

TEST(Accountability, AsyncStarvationShowsUpAsMissingConfirmations) {
  const int n = 8;
  const int t = 1;
  const sim::ProcId target = 3;
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::BenOr;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = 4000;
  spec.stop = core::StopCondition::kAllDecided;
  spec.lens = true;
  const core::Runner runner(spec);
  core::WorkerScratch scratch;
  LatencyAccumulator acc;
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    // An effectively unbounded fairness bound: the target's messages are
    // deferred whenever ANY other delivery is pending. run_async never
    // drops messages, so the starvation evidence is confirmation shares
    // (deciders deciding before first hearing the target), not
    // suppression counts.
    adversary::StarvingAsyncScheduler starve(
        std::make_unique<adversary::RandomAsyncScheduler>(Rng(seed * 3 + 1)),
        target, /*fairness_bound=*/1 << 28);
    (void)runner.run_async(starve, seed, scratch);
    ASSERT_TRUE(scratch.trace.has_value());
    acc.add(*scratch.trace);
  }
  const LatencyReport rep = acc.finalize(t);
  ASSERT_GT(rep.deciders, 0);
  const SenderLatency& victim = rep.senders[static_cast<std::size_t>(target)];
  const SenderLatency& witness =
      rep.senders[static_cast<std::size_t>((target + 1) % n)];
  EXPECT_LT(victim.confirmed_share, witness.confirmed_share);
  EXPECT_GT(victim.censorship_score, 0.0);
  const auto& blamed = rep.blamed_censored;
  EXPECT_NE(std::find(blamed.begin(), blamed.end(), target), blamed.end())
      << "starved target should exceed the blame threshold";
}

}  // namespace
}  // namespace aa::lens
