// Integration: the settled stop rule (sim::run_until_settled,
// StopCondition::kSettled) that the measure-one checkers run.
//
// A window execution is frozen once no live processor has a staged message
// at a window's start: nothing is published, delivered or decided after
// that (sim/window.hpp). These tests check that premise on every window
// protocol under every window adversary and chaos mix, check that a
// settled run's verdict equals the full-budget run's, pin the one case the
// rule must wait for (a later crash that removes the last undecided
// processor), and check the driver's can_crash() contract.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "core/experiment.hpp"
#include "protocols/factory.hpp"
#include "sim/window.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

struct ProtocolCase {
  ProtocolKind kind;
  int memory_k;
};

// Every window protocol of the factory (Forgetful bounded and unbounded).
const std::vector<ProtocolCase> kProtocols = {
    {ProtocolKind::Reset, 0},     {ProtocolKind::BenOr, 0},
    {ProtocolKind::Bracha, 0},    {ProtocolKind::Forgetful, 0},
    {ProtocolKind::Forgetful, 3},
};

const std::vector<std::string> kAdversaries = {
    "fair", "silencer", "random", "reset-storm", "split-keeper"};

struct ChaosCase {
  const char* name;
  sim::FaultPlan fp;
};

// The campaign's chaos_plan presets, plus the every-knob mix of
// examples/campaign_chaos.cfg.
std::vector<ChaosCase> chaos_cases() {
  std::vector<ChaosCase> out;
  out.push_back({"none", {}});
  sim::FaultPlan fp;
  fp.censor_prob = 0.25;
  out.push_back({"censor-light", fp});
  fp = {};
  fp.censor_prob = 0.9;
  out.push_back({"censor-heavy", fp});
  fp = {};
  fp.reset_prob = 0.5;
  out.push_back({"resets", fp});
  fp = {};
  fp.crash_prob = 0.2;
  fp.crash_budget = 1;
  out.push_back({"crashy", fp});
  fp = {};
  fp.crash_prob = 0.05;
  fp.crash_budget = 1;
  fp.reset_prob = 0.3;
  fp.censor_prob = 0.2;
  fp.duplicate_row_prob = 0.1;
  fp.degenerate_prob = 0.05;
  fp.chaos_seed = 7;
  out.push_back({"mixed", fp});
  return out;
}

/// The campaign's cell factory shape: menu adversary, chaos, then
/// (outermost) the targeted censor of sender 0.
WindowAdversaryFactory cell_factory(const std::string& name, int t,
                                    const sim::FaultPlan& fp, bool censor) {
  WindowAdversaryFactory f = window_adversary_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::ChaosWindowAdversary>(inner(seed), fp,
                                                               seed);
    };
  }
  if (censor) {
    f = [inner = std::move(f)](
            std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::TargetedCensorAdversary>(inner(seed),
                                                                  0);
    };
  }
  return f;
}

/// Frozen per the model, read straight off the staged outboxes.
bool frozen(const sim::Execution& exec) {
  for (sim::ProcId p = 0; p < exec.n(); ++p) {
    if (!exec.crashed(p) && exec.has_staged(p)) return false;
  }
  return true;
}

TEST(SettledStop, FrozenExecutionStaysFrozen) {
  const int n = 7;
  const int t = 1;
  const std::int64_t budget = 60;
  int runs = 0;
  int frozen_runs = 0;
  int reset_after_freeze = 0;
  int crash_after_freeze = 0;
  for (const ProtocolCase& pc : kProtocols) {
    for (const std::string& adv_name : kAdversaries) {
      for (const ChaosCase& cc : chaos_cases()) {
        const WindowAdversaryFactory make =
            cell_factory(adv_name, t, cc.fp, /*censor=*/false);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          sim::Execution exec(
              protocols::make_processes(pc.kind, t,
                                        protocols::split_inputs(n, 0.5),
                                        std::nullopt, pc.memory_k),
              seed);
          const auto adv = make(seed);
          bool froze = false;
          std::int64_t sent = 0;
          std::int64_t resets = 0;
          int crashed = 0;
          std::vector<int> outputs;
          for (std::int64_t w = 0; w < budget; ++w) {
            if (froze) {
              const std::string where =
                  protocols::protocol_kind_name(pc.kind) + "/" + adv_name +
                  "/" + cc.name + " seed " + std::to_string(seed) +
                  " window " + std::to_string(w);
              ASSERT_TRUE(frozen(exec)) << where;
              ASSERT_EQ(exec.buffer().total_sent(), sent) << where;
              for (sim::ProcId p = 0; p < n; ++p) {
                ASSERT_EQ(exec.output(p), outputs[static_cast<std::size_t>(p)])
                    << where << " proc " << p;
              }
            } else if (frozen(exec)) {
              froze = true;
              sent = exec.buffer().total_sent();
              resets = exec.total_resets();
              crashed = exec.crashed_count();
              for (sim::ProcId p = 0; p < n; ++p) {
                outputs.push_back(exec.output(p));
              }
            }
            sim::run_acceptable_window(exec, *adv, t);
          }
          ++runs;
          if (!froze) continue;
          ++frozen_runs;
          if (exec.total_resets() > resets) ++reset_after_freeze;
          if (exec.crashed_count() > crashed) ++crash_after_freeze;
        }
      }
    }
  }
  // Coverage: many runs freeze, and the frozen windows still see resets
  // and chaos crashes, which must not thaw them.
  EXPECT_GT(frozen_runs, runs / 4) << frozen_runs << " of " << runs;
  EXPECT_GT(reset_after_freeze, 0);
  EXPECT_GT(crash_after_freeze, 0);
}

/// Forwarding wrapper that counts the windows which published nothing
/// while the adversary could still crash: the frozen windows a settled
/// run must keep simulating.
class FreezeProbe final : public sim::WindowAdversary {
 public:
  FreezeProbe(std::unique_ptr<sim::WindowAdversary> inner, int* waited)
      : inner_(std::move(inner)), waited_(waited) {}
  void prepare(int n, int t) override { inner_->prepare(n, t); }
  sim::PlanDecision plan_window_into(const sim::Execution& exec,
                                     const sim::WindowBatch& batch,
                                     sim::WindowPlan& plan) override {
    if (batch.size() == 0 && inner_->can_crash()) ++*waited_;
    return inner_->plan_window_into(exec, batch, plan);
  }
  [[nodiscard]] std::span<const sim::ProcId> window_crashes() const override {
    return inner_->window_crashes();
  }
  [[nodiscard]] bool can_crash() const override { return inner_->can_crash(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::WindowAdversary> inner_;
  int* waited_;
};

TEST(SettledStop, SettledVerdictMatchesBudgetRun) {
  const std::int64_t budget = 150;
  int pairs = 0;
  int settled = 0;
  int waited_runs = 0;  // crash-capable frozen runs that kept going
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{7, 1}, {10, 2}}) {
    for (const ProtocolCase& pc : kProtocols) {
      Experiment spec{.kind = pc.kind,
                      .inputs = protocols::split_inputs(n, 0.5),
                      .t = t,
                      .budget = budget,
                      .stop = StopCondition::kAllDecided,
                      .memory_k = pc.memory_k};
      const Runner full(spec);
      spec.stop = StopCondition::kSettled;
      const Runner settle(spec);
      for (const std::string& adv_name : kAdversaries) {
        for (const ChaosCase& cc : chaos_cases()) {
          for (const bool censor : {false, true}) {
            const WindowAdversaryFactory make =
                cell_factory(adv_name, t, cc.fp, censor);
            for (std::uint64_t seed = 100; seed < 102; ++seed) {
              const std::string where =
                  "n=" + std::to_string(n) + " " +
                  protocols::protocol_kind_name(pc.kind) + " k=" +
                  std::to_string(pc.memory_k) + " " + adv_name + "/" +
                  cc.name + (censor ? "/censor" : "") + " seed " +
                  std::to_string(seed);
              const WindowRunResult a = full.run_window(*make(seed), seed);
              int waited = 0;
              FreezeProbe probe(make(seed), &waited);
              const WindowRunResult b = settle.run_window(probe, seed);
              ++pairs;
              EXPECT_EQ(a.agreement, b.agreement) << where;
              EXPECT_EQ(a.validity, b.validity) << where;
              EXPECT_EQ(a.decided, b.decided) << where;
              EXPECT_EQ(a.all_decided, b.all_decided) << where;
              EXPECT_EQ(a.decision, b.decision) << where;
              EXPECT_EQ(a.windows_to_first, b.windows_to_first) << where;
              EXPECT_FALSE(a.settled) << where;
              if (b.settled) {
                ++settled;
                EXPECT_LT(b.windows_total, a.windows_total) << where;
              } else {
                EXPECT_EQ(b.windows_total, a.windows_total) << where;
              }
              if (waited > 0) ++waited_runs;
            }
          }
        }
      }
    }
  }
  // Coverage floors: the rule fires often, and crash-capable runs that
  // froze kept going rather than settling.
  EXPECT_GT(settled, pairs / 10) << settled << " of " << pairs;
  EXPECT_GT(waited_runs, 0);
}

// ---- the crash that flips all_decided --------------------------------

/// Broadcasts once at start; every processor but `mute` decides its input
/// on its first delivery. Stages nothing after that, so the execution
/// freezes after window 0 with `mute` the one undecided processor.
class DecideOnHear final : public sim::Process {
 public:
  DecideOnHear(int input, bool mute) : input_(input), mute_(mute) {}
  void on_start(sim::Outbox& out) override {
    out.broadcast(sim::Message{.round = 1, .kind = 0, .value = input_});
  }
  void on_receive(const sim::Envelope& /*env*/, Rng& /*rng*/,
                  sim::Outbox& /*out*/) override {
    if (!mute_ && output_ == sim::kBot) output_ = input_;
  }
  void on_reset() override {}
  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return 1; }
  [[nodiscard]] int estimate() const override { return input_; }
  [[nodiscard]] const char* protocol_name() const override {
    return "decide-on-hear";
  }

 private:
  int input_;
  bool mute_;
  int output_ = sim::kBot;
};

sim::Execution decide_on_hear(int n, std::uint64_t seed) {
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (int p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<DecideOnHear>(1, p == n - 1));
  }
  return sim::Execution(std::move(procs), seed);
}

TEST(SettledStop, LaterCrashOfLastUndecidedIsWaitedFor) {
  const int n = 4;
  const int t = 1;
  const std::int64_t budget = 200;
  sim::FaultPlan fp;
  fp.crash_prob = 0.05;
  fp.crash_budget = 1;
  const auto make = [&fp](std::uint64_t seed) {
    return std::make_unique<adversary::ChaosWindowAdversary>(
        std::make_unique<adversary::FairWindowAdversary>(), fp, seed);
  };
  int flips = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::Execution full = decide_on_hear(n, seed);
    const auto a = make(seed);
    const std::int64_t full_windows =
        sim::run_until_all_decided(full, *a, t, budget);

    sim::Execution exec = decide_on_hear(n, seed);
    const auto b = make(seed);
    sim::run_acceptable_window(exec, *b, t);
    ASSERT_FALSE(exec.any_staged()) << "seed " << seed;
    ASSERT_EQ(exec.output(n - 1), sim::kBot) << "seed " << seed;
    const sim::SettledRun r = sim::run_until_settled(exec, *b, t, budget - 1);
    EXPECT_EQ(exec.all_live_decided(), full.all_live_decided())
        << "seed " << seed;
    EXPECT_EQ(exec.decided_count(), full.decided_count()) << "seed " << seed;
    if (!r.frozen) {
      EXPECT_EQ(r.windows + 1, full_windows) << "seed " << seed;
    }
    if (full.crashed(n - 1) && full_windows > 1) {
      // The crash came after the freeze and flipped all_decided: the
      // settled run had to wait for it.
      ++flips;
      EXPECT_TRUE(full.all_live_decided()) << "seed " << seed;
      EXPECT_FALSE(r.frozen) << "seed " << seed;
    }
  }
  EXPECT_GT(flips, 0);
}

// ---- the can_crash() contract ------------------------------------------

/// Fair plans, plus a crash of processor 1 in the third window — declared
/// through can_crash() or not. The test calls tick() before each window.
class LateCrasher final : public sim::StaticWindowAdversary {
 public:
  explicit LateCrasher(bool declare) : declare_(declare) {}
  void tick() { ++window_; }
  [[nodiscard]] std::span<const sim::ProcId> window_crashes() const override {
    return window_ == 3 ? std::span<const sim::ProcId>(crash_)
                        : std::span<const sim::ProcId>();
  }
  [[nodiscard]] bool can_crash() const override {
    return declare_ && window_ <= 3;
  }
  [[nodiscard]] std::string name() const override { return "late-crasher"; }

 protected:
  void fill_static(int n, sim::WindowPlan& plan) override {
    for (int i = 0; i < n; ++i) {
      for (sim::ProcId s = 0; s < n; ++s) {
        plan.delivery_order[static_cast<std::size_t>(i)].push_back(s);
      }
    }
  }

 private:
  bool declare_;
  int window_ = 0;
  std::vector<sim::ProcId> crash_{1};
};

TEST(SettledStop, UndeclaredCrashFailsLoudly) {
  for (const bool declare : {true, false}) {
    sim::Execution exec = decide_on_hear(4, 5);
    LateCrasher adv(declare);
    bool threw = false;
    for (int w = 0; w < 5 && !threw; ++w) {
      adv.tick();
      try {
        sim::run_acceptable_window(exec, adv, 1);
      } catch (const std::logic_error&) {
        threw = true;
      }
    }
    EXPECT_EQ(threw, !declare) << "declare=" << declare;
    EXPECT_EQ(exec.crashed(1), declare) << "declare=" << declare;
  }
}

}  // namespace
}  // namespace aa::core
