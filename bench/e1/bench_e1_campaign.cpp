// bench_e1_campaign: one workload of the e1 end-to-end campaign benchmark.
//
// End-to-end mode (default) runs a checked-in campaign config through the
// real user path — core::load_campaign_config → core::CampaignContext →
// core::run_campaign, artifacts written to a fresh directory, tracing off —
// and times each sweep:
//
//   * an untimed warm-up: one pass of the bench-local replica (below),
//     which yields the exact window / delivery totals a sweep performs and
//     the digests of every artifact, then one checked user sweep;
//   * the peak-RSS count restarts, so peak_rss_mb covers the timed sweeps;
//   * timed sweeps, each on a fresh context and output directory (what
//     every CLI run pays), each followed by the host-speed probe
//     (host_probe.hpp) for half the sweep's wall time, until --seconds
//     have elapsed (at least three sweeps);
//   * set-up samples: config load + context construction (+ pool spawn
//     when threads > 1), a short warm burst after each slice of the
//     probe, so they are spread over the whole run.
//
// Trace mode (--trace) measures the per-layer split instead. The replica
// re-implements run_campaign's cell loop, Runner::run_window / run_async,
// and run_acceptable_window / run_async on top of the SAME public calls
// (Execution::sending_step, WindowAdversary::plan_window_into,
// validate_window_plan, deliver_plan_row, resetting_step, end_window,
// AsyncAdversary::next, receiving_step, the accumulators, the artifact
// writers) and wraps every Process in a forwarding decorator, so a
// steady_clock read at each call boundary attributes every nanosecond of
// the pass to exactly one layer (self time). Each traced pass is paired
// with an untraced one (tracing overhead, per-trial latency). Trace mode
// also times a 1-thread user sweep against the same sweep on min(4, nproc)
// pool threads, and a `resume = true` pass over the finished artifacts,
// and writes one span record per trial and per cell to
// <out>/trace_<workload>.jsonl when it exits.
//
// Every sweep and replica pass is checked: every requested trial present
// and no cell failed; each cell artifact with the FNV-1a digest of the
// replica's (tallies and violating_seeds), the lens sidecars too; and the
// digest of campaign_summary_json equal to the replica's and therefore
// identical across sweeps. A failed check counts the sweep's trials as
// failed and the process exits 1.
//
// The last stdout line is one JSON object of raw samples; bench/e1/run.py
// turns it into metrics. Usage (run.py passes these):
//
//   bench_e1_campaign --workload NAME --config PATH --seed S --seconds X
//                     --out DIR [--trace] [--smoke]
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "core/checker.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "lens/accountability.hpp"
#include "lens/trace.hpp"
#include "protocols/factory.hpp"
#include "protocols/thresholds.hpp"
#include "sim/async.hpp"
#include "sim/execution.hpp"
#include "sim/window.hpp"
#include "util/thread_pool.hpp"

#include "host_probe.hpp"

#ifndef AA_E1_BUILD_TYPE
#define AA_E1_BUILD_TYPE "unknown"
#endif
#ifndef AA_E1_COMPILER
#define AA_E1_COMPILER "unknown"
#endif

using namespace aa;
namespace fs = std::filesystem;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

// ------------------------------------------------------------------ tracing

/// Layers are the repository's modules, split at the public calls the
/// replica makes. kGlue is the benchmark's own replica loop between calls;
/// trace coverage is everything else.
enum Layer : int {
  kGlue = 0,
  kPublish,     ///< begin_window_batch + sending_step
  kValidate,    ///< validate_window_plan
  kDeliver,     ///< deliver_plan_row
  kReset,       ///< resetting_step + crash (the liveness changes)
  kSweep,       ///< end_window (window-edge drop + sampled audit)
  kReceive,     ///< receiving_step + run_async's delivery guards
  kLoop,        ///< the run loops' stop checks
  kPlan,        ///< WindowAdversary::prepare + plan_window_into
  kNext,        ///< AsyncAdversary::prepare + next
  kCompute,     ///< Process on_start / on_receive(_batch) / on_reset
  kTrialSetup,  ///< adversary factory + make_processes + Execution::reset
  kMerge,       ///< trial verdict + MeasureOneAccumulator add/merge/finalize
  kArtifact,    ///< JSON serialization + write_file_atomic
  kLensFold,    ///< LatencyAccumulator add/merge/finalize
  kLayerCount
};

constexpr std::array<const char*, kLayerCount> kLayerName = {
    "bench.glue",     "sim.publish",      "sim.validate", "sim.deliver",
    "sim.reset",      "sim.sweep",        "sim.receive",  "sim.loop",
    "adversary.plan", "adversary.next",   "protocols.compute",
    "core.trial_setup", "core.merge",     "core.artifact", "lens.fold"};

struct LayerTally {
  std::int64_t calls = 0;
  std::int64_t ns = 0;
};
using Tallies = std::array<LayerTally, kLayerCount>;

/// Exclusive-time stack: each clock read charges the interval since the
/// previous read to the layer on top of the stack, so a layer's total is
/// its self time (span minus child spans) and the layers sum to the wall.
class Tracer {
 public:
  void start() {
    depth_ = 0;
    stack_[0] = kGlue;
    last_ = now_ns();
  }
  void enter(Layer l) {
    tick();
    require(depth_ + 1 < static_cast<int>(stack_.size()),
            "tracer: span nesting too deep");
    stack_[static_cast<std::size_t>(++depth_)] = l;
    ++tally_[l].calls;
  }
  void leave() {
    tick();
    --depth_;
  }
  /// Replace the top span by a sibling: one clock read instead of two.
  void swap(Layer l) {
    tick();
    stack_[static_cast<std::size_t>(depth_)] = l;
    ++tally_[l].calls;
  }
  void stop() { tick(); }
  [[nodiscard]] const Tallies& tally() const noexcept { return tally_; }

 private:
  void tick() {
    const std::int64_t t = now_ns();
    tally_[stack_[static_cast<std::size_t>(depth_)]].ns += t - last_;
    last_ = t;
  }

  std::array<Layer, 8> stack_{};
  int depth_ = 0;
  std::int64_t last_ = 0;
  Tallies tally_{};
};

/// Scoped span; a null tracer makes it free apart from one branch. to()
/// moves the span on to the next of a run of sibling calls (a run
/// loop's phases), so each boundary costs one clock read, not two.
class Span {
 public:
  Span(Tracer* tr, Layer l) : tr_(tr) {
    if (tr_ != nullptr) tr_->enter(l);
  }
  ~Span() {
    if (tr_ != nullptr) tr_->leave();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void to(Layer l) {
    if (tr_ != nullptr) tr_->swap(l);
  }

 private:
  Tracer* tr_;
};

/// Work counts taken at the same boundaries as the spans (one list, so
/// the struct, its sum and its JSON stay in step).
#define E1_COUNTERS(X)                                                   \
  X(trials)                                                              \
  X(windows)                                                             \
  X(publish_calls)                                                       \
  X(publish_msgs)                                                        \
  X(validate_calls)                                                      \
  X(rows)            /* deliver_plan_row calls */                        \
  X(delivering_rows) /* rows that delivered something */                 \
  X(splice_rows)     /* ... whose row was splice-eligible */             \
  X(row_msgs)        /* messages delivered by deliver_plan_row */        \
  X(resets)                                                              \
  X(crashes)                                                             \
  X(dropped)         /* swept undelivered at window edges */             \
  X(receives)        /* async receiving steps */                         \
  X(plan_calls)                                                          \
  X(plan_updated)                                                        \
  X(next_calls)                                                          \
  X(next_delivers)                                                       \
  X(compute_calls)                                                       \
  X(compute_envelopes)                                                   \
  X(merge_calls)                                                         \
  X(lens_folds)                                                          \
  X(artifact_files)                                                      \
  X(artifact_bytes)

struct Counters {
#define E1_FIELD(name) std::int64_t name = 0;
  E1_COUNTERS(E1_FIELD)
#undef E1_FIELD

  void add(const Counters& o) {
#define E1_ADD(name) name += o.name;
    E1_COUNTERS(E1_ADD)
#undef E1_ADD
  }
  /// Messages delivered, in either model.
  [[nodiscard]] std::int64_t deliveries() const { return row_msgs + receives; }
};

/// Forwarding decorator: times the protocol's local computation as the
/// child span `protocols.compute` of whichever sim call triggered it.
class TracedProcess final : public sim::Process {
 public:
  TracedProcess(std::unique_ptr<sim::Process> inner, Tracer& tr, Counters& c)
      : inner_(std::move(inner)), tr_(tr), c_(c) {}

  void on_start(sim::Outbox& out) override {
    Span s(&tr_, kCompute);
    ++c_.compute_calls;
    inner_->on_start(out);
  }
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override {
    Span s(&tr_, kCompute);
    ++c_.compute_calls;
    ++c_.compute_envelopes;
    inner_->on_receive(env, rng, out);
  }
  void on_receive_batch(std::span<const sim::Envelope* const> envs, Rng& rng,
                        sim::Outbox& out) override {
    Span s(&tr_, kCompute);
    ++c_.compute_calls;
    c_.compute_envelopes += static_cast<std::int64_t>(envs.size());
    inner_->on_receive_batch(envs, rng, out);
  }
  void on_reset() override {
    Span s(&tr_, kCompute);
    ++c_.compute_calls;
    inner_->on_reset();
  }
  [[nodiscard]] int input() const override { return inner_->input(); }
  [[nodiscard]] int output() const override { return inner_->output(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  [[nodiscard]] int estimate() const override { return inner_->estimate(); }
  [[nodiscard]] const char* protocol_name() const override {
    return inner_->protocol_name();
  }

 private:
  std::unique_ptr<sim::Process> inner_;
  Tracer& tr_;
  Counters& c_;
};

// ------------------------------------------ mirror of campaign.cpp's cells
//
// run_campaign's axis resolution, adversary seeds and chaos presets are
// private to core/campaign.cpp; the replica repeats them here. The
// faithfulness check (every cell artifact's digest equal to the replica's)
// catches any drift between the two.

protocols::ProtocolKind protocol_kind(const std::string& name) {
  if (name == "reset" || name == "reset-agreement") {
    return protocols::ProtocolKind::Reset;
  }
  if (name == "forgetful") return protocols::ProtocolKind::Forgetful;
  if (name == "benor" || name == "ben-or") return protocols::ProtocolKind::BenOr;
  if (name == "bracha") return protocols::ProtocolKind::Bracha;
  throw std::runtime_error("unknown protocol '" + name + "'");
}

std::optional<protocols::Thresholds> threshold_preset(const std::string& name,
                                                      int n, int t) {
  if (name == "default") return std::nullopt;
  if (name == "canonical") return protocols::canonical_thresholds(n, t);
  if (name == "relaxed") {
    return protocols::Thresholds{n - 2 * t, n / 2 + 1 + t, n / 2 + 1};
  }
  throw std::runtime_error("unknown thresholds preset '" + name + "'");
}

core::WindowAdversaryFactory window_factory(const std::string& name, int t) {
  require(name == "fair" || name == "silencer" || name == "split-keeper" ||
              name == "reset-storm" || name == "random",
          "unknown window adversary '" + name + "'");
  return [name, t](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
    if (name == "fair") {
      return std::make_unique<adversary::FairWindowAdversary>();
    }
    if (name == "silencer") {
      std::vector<sim::ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(i);
      return std::make_unique<adversary::SilencerWindowAdversary>(silenced);
    }
    if (name == "split-keeper") {
      return std::make_unique<adversary::SplitKeeperAdversary>();
    }
    if (name == "reset-storm") {
      return std::make_unique<adversary::ResetStormAdversary>(
          t, Rng(seed * 7 + 1));
    }
    return std::make_unique<adversary::RandomWindowAdversary>(
        t, 0.1, Rng(seed * 9 + 2));
  };
}

core::AsyncAdversaryFactory async_factory(const std::string& name, int t) {
  require(name == "random-async" || name == "fixed-crash" ||
              name == "async-split",
          "unknown async adversary '" + name + "'");
  return [name, t](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
    if (name == "random-async") {
      return std::make_unique<adversary::RandomAsyncScheduler>(
          Rng(seed * 3 + 1));
    }
    if (name == "fixed-crash") {
      std::vector<sim::ProcId> crash;
      for (int i = 0; i < t; ++i) crash.push_back(i);
      return std::make_unique<adversary::FixedCrashScheduler>(
          crash, Rng(seed * 5 + 3));
    }
    return std::make_unique<adversary::AsyncSplitKeeper>();
  };
}

sim::FaultPlan chaos_plan_preset(const core::CampaignConfig& config,
                                 const std::string& name) {
  if (name == "none") return config.chaos;
  sim::FaultPlan fp;
  fp.censor_target = config.chaos.censor_target;
  fp.chaos_seed = config.chaos.chaos_seed;
  if (name == "censor-light") {
    fp.censor_prob = 0.25;
  } else if (name == "censor-heavy") {
    fp.censor_prob = 0.9;
  } else if (name == "resets") {
    fp.reset_prob = 0.5;
  } else if (name == "crashy") {
    fp.crash_prob = 0.2;
    fp.crash_budget = 1;
  } else {
    throw std::runtime_error("unknown chaos_plan preset '" + name + "'");
  }
  return fp;
}

constexpr int kCampaignStarveBound = 8;

/// The cell factory with the chaos layer and (outermost) the targeted
/// censor applied.
core::WindowAdversaryFactory cell_window_factory(
    const core::CampaignConfig& config, const sim::FaultPlan& fp,
    const std::string& name, int t) {
  core::WindowAdversaryFactory f = window_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::ChaosWindowAdversary>(inner(seed), fp,
                                                               seed);
    };
  }
  if (config.censor_target >= 0) {
    const sim::ProcId target = config.censor_target;
    f = [inner = std::move(f),
         target](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::TargetedCensorAdversary>(inner(seed),
                                                                  target);
    };
  }
  return f;
}

core::AsyncAdversaryFactory cell_async_factory(const core::CampaignConfig& config,
                                               const sim::FaultPlan& fp,
                                               const std::string& name, int t) {
  core::AsyncAdversaryFactory f = async_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<adversary::ChaosAsyncScheduler>(inner(seed), fp,
                                                              seed);
    };
  }
  if (config.censor_target >= 0) {
    const sim::ProcId target = config.censor_target;
    f = [inner = std::move(f),
         target](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<adversary::StarvingAsyncScheduler>(
          inner(seed), target, kCampaignStarveBound);
    };
  }
  return f;
}

struct CellSpec {
  core::CampaignCell coords;  ///< index, axes and seed0; report unset
  core::Experiment spec;
  core::WindowAdversaryFactory window;
  core::AsyncAdversaryFactory async;
};

std::vector<CellSpec> enumerate_cells(const core::CampaignConfig& config) {
  std::vector<CellSpec> cells;
  int index = 0;
  for (const int n : config.n) {
    for (const int t : config.t) {
      for (const std::string& proto : config.protocols) {
        const protocols::ProtocolKind kind = protocol_kind(proto);
        for (const std::string& th_name : config.thresholds) {
          const std::size_t k_count =
              kind == protocols::ProtocolKind::Forgetful
                  ? config.memory_k.size()
                  : 1;
          for (std::size_t ki = 0; ki < k_count; ++ki) {
            for (const std::string& adv : config.adversaries) {
              for (const std::string& plan_name : config.chaos_plan) {
                CellSpec c;
                c.coords.index = index;
                c.coords.n = n;
                c.coords.t = t;
                c.coords.protocol = proto;
                c.coords.thresholds = th_name;
                c.coords.memory_k = config.memory_k[ki];
                c.coords.adversary = adv;
                c.coords.chaos_plan = plan_name;
                c.coords.seed0 =
                    config.seed + static_cast<std::uint64_t>(index) *
                                      static_cast<std::uint64_t>(config.trials);
                c.spec.kind = kind;
                c.spec.inputs = protocols::split_inputs(n, config.split);
                c.spec.t = t;
                c.spec.budget = config.budget;
                c.spec.thresholds = threshold_preset(th_name, n, t);
                c.spec.memory_k = config.memory_k[ki];
                c.spec.audit = config.audit;
                c.spec.audit_every = config.audit_every;
                c.spec.stop = core::StopCondition::kAllDecided;
                c.spec.lens = config.lens;
                const sim::FaultPlan fp = chaos_plan_preset(config, plan_name);
                if (config.model == core::CampaignModel::kWindow) {
                  c.window = cell_window_factory(config, fp, adv, t);
                } else {
                  c.async = cell_async_factory(config, fp, adv, t);
                }
                cells.push_back(std::move(c));
                ++index;
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

std::string cell_path(const core::CampaignConfig& config, const std::string& dir,
                      int index, bool lens) {
  return (fs::path(dir) / (config.name + "_cell_" + std::to_string(index) +
                           (lens ? "_lens.json" : ".json")))
      .string();
}

// ------------------------------------------------------- replica run loops

/// Runner::prepare, with every process wrapped when tracing.
sim::Execution& prepare_execution(const core::Experiment& spec,
                                  core::WorkerScratch& scratch,
                                  std::uint64_t seed, Tracer* tr, Counters& c) {
  std::vector<std::unique_ptr<sim::Process>> procs = protocols::make_processes(
      spec.kind, spec.t, spec.inputs, spec.thresholds, spec.memory_k);
  if (tr != nullptr) {
    for (auto& p : procs) {
      p = std::make_unique<TracedProcess>(std::move(p), *tr, c);
    }
  }
  sim::ExecutionConfig cfg;
  cfg.audit = spec.audit;
  cfg.audit_every = spec.audit_every;
  if (spec.lens) {
    if (!scratch.trace) scratch.trace.emplace();
    cfg.lens = &*scratch.trace;
  }
  if (scratch.exec) {
    scratch.exec->reset(std::move(procs), seed, cfg);
  } else {
    scratch.exec.emplace(std::move(procs), seed, cfg);
  }
  return *scratch.exec;
}

/// Whether deliver_plan_row takes its whole-list splice path for this row:
/// the row's senders-with-messages appear in ascending order.
bool splice_eligible(const sim::WindowBatch& batch, sim::ProcId receiver,
                     const std::vector<sim::ProcId>& row) {
  if (std::is_sorted(row.begin(), row.end())) return true;
  sim::ProcId last = -1;
  for (const sim::ProcId s : row) {
    if (batch.count(s, receiver) == 0) continue;
    if (s < last) return false;
    last = s;
  }
  return true;
}

/// sim::run_acceptable_window, call for call. `phase` is the run
/// loop's span; each step moves it on to the step's layer.
void replica_window(sim::Execution& exec, sim::WindowAdversary& adv, int t,
                    Span& phase, std::vector<std::uint8_t>& ascending,
                    Counters& c) {
  const int n = exec.n();
  sim::WindowScratch& sc = exec.window_scratch();
  if (sc.planner != static_cast<const void*>(&adv) || sc.planner_t != t) {
    phase.to(kPlan);
    adv.prepare(n, t);
    sc.planner = static_cast<const void*>(&adv);
    sc.planner_t = t;
    sc.plan.reset(n);
    sc.plan_validated = false;
  }
  phase.to(kPublish);
  exec.begin_window_batch();
  for (sim::ProcId p = 0; p < n; ++p) exec.sending_step(p);
  c.publish_calls += n;
  c.publish_msgs += static_cast<std::int64_t>(sc.batch.size());

  phase.to(kPlan);
  const sim::PlanDecision decision =
      adv.plan_window_into(exec, exec.window_batch(), sc.plan);
  ++c.plan_calls;
  if (decision == sim::PlanDecision::kUpdated) ++c.plan_updated;
  if (decision == sim::PlanDecision::kUpdated || !sc.plan_validated ||
      sc.plan_liveness_epoch != exec.liveness_epoch()) {
    phase.to(kValidate);
    sim::validate_window_plan(sc.plan, n, t, sc);
    ++c.validate_calls;
    sc.plan_validated = true;
    sc.plan_liveness_epoch = exec.liveness_epoch();
  }

  // The benchmark's own bookkeeping: which rows take the splice path.
  phase.to(kGlue);
  const sim::WindowBatch batch = exec.window_batch();
  ascending.assign(static_cast<std::size_t>(n), 0);
  for (sim::ProcId i = 0; i < n; ++i) {
    if (exec.crashed(i)) continue;
    ascending[static_cast<std::size_t>(i)] = splice_eligible(
        batch, i, sc.plan.delivery_order[static_cast<std::size_t>(i)]);
  }

  phase.to(kDeliver);
  for (sim::ProcId i = 0; i < n; ++i) {
    if (exec.crashed(i)) continue;
    const int got = exec.deliver_plan_row(
        i, sc.plan.delivery_order[static_cast<std::size_t>(i)]);
    ++c.rows;
    if (got > 0) {
      ++c.delivering_rows;
      c.splice_rows += ascending[static_cast<std::size_t>(i)];
    }
    c.row_msgs += got;
  }

  phase.to(kReset);
  for (const sim::ProcId p : sc.plan.resets) {
    if (exec.crashed(p)) continue;
    exec.resetting_step(p);
    ++c.resets;
  }
  for (const sim::ProcId p : adv.window_crashes()) {
    exec.crash(p);
    ++c.crashes;
  }

  phase.to(kSweep);
  const std::size_t before = exec.buffer().dropped_count();
  exec.end_window();
  c.dropped += static_cast<std::int64_t>(exec.buffer().dropped_count() - before);
  ++c.windows;
}

/// The checkers' trial verdict. The decision metric is windows to the
/// first decision (window model) or its message chain (async model).
core::TrialVerdict verdict_of(const sim::Execution& exec,
                              const core::Experiment& spec, bool async) {
  core::TrialVerdict v;
  v.agreement = core::check_agreement(exec);
  v.validity = core::check_validity(exec, spec.inputs);
  v.decided = exec.decided_count() > 0;
  v.all_decided = exec.all_live_decided();
  if (const auto first = exec.first_decision()) {
    v.metric = async ? first->chain : first->window + 1;
  }
  return v;
}

/// Runner::run_window under StopCondition::kAllDecided.
core::TrialVerdict window_trial(const CellSpec& cell, std::uint64_t seed,
                                core::WorkerScratch& scratch, Tracer* tr,
                                Counters& c) {
  std::unique_ptr<sim::WindowAdversary> adv;
  {
    Span s(tr, kTrialSetup);
    adv = cell.window(seed);
    prepare_execution(cell.spec, scratch, seed, tr, c);
  }
  sim::Execution& exec = *scratch.exec;
  std::vector<std::uint8_t> ascending;
  {
    Span phase(tr, kLoop);
    for (std::int64_t w = 0;
         w < cell.spec.budget && !exec.all_live_decided(); ++w) {
      replica_window(exec, *adv, cell.spec.t, phase, ascending, c);
      phase.to(kLoop);
    }
  }
  Span s(tr, kMerge);
  return verdict_of(exec, cell.spec, /*async=*/false);
}

/// Runner::run_async + sim::run_async (until all live processors decided).
core::TrialVerdict async_trial(const CellSpec& cell, std::uint64_t seed,
                               core::WorkerScratch& scratch, Tracer* tr,
                               Counters& c) {
  std::unique_ptr<sim::AsyncAdversary> adv;
  {
    Span s(tr, kTrialSetup);
    adv = cell.async(seed);
    prepare_execution(cell.spec, scratch, seed, tr, c);
  }
  sim::Execution& exec = *scratch.exec;
  const int n = exec.n();
  const int t = cell.spec.t;
  {
    Span s(tr, kNext);
    adv->prepare(n, t);
  }
  {
    Span s(tr, kPublish);
    for (sim::ProcId p = 0; p < n; ++p) {
      c.publish_msgs += static_cast<std::int64_t>(exec.sending_step(p).size());
    }
  }
  c.publish_calls += n;
  std::int64_t deliveries = 0;
  {
    Span phase(tr, kLoop);
    while (!exec.all_live_decided() && deliveries < cell.spec.budget) {
      phase.to(kNext);
      const sim::AsyncAction action = adv->next(exec);
      ++c.next_calls;
      if (std::holds_alternative<sim::StopAction>(action)) break;
      if (const auto* crash = std::get_if<sim::CrashAction>(&action)) {
        phase.to(kReset);
        require(exec.crashed_count() < t,
                "async adversary exceeded its crash budget t");
        exec.crash(crash->p);
        ++c.crashes;
        phase.to(kLoop);
        continue;
      }
      ++c.next_delivers;
      phase.to(kReceive);
      const sim::MsgId id = std::get<sim::DeliverAction>(action).id;
      require(exec.buffer().is_pending(id),
              "async adversary delivered a non-pending message");
      const sim::ProcId receiver = exec.buffer().get(id).receiver;
      require(!exec.crashed(receiver),
              "async adversary delivered to a crashed processor");
      exec.receiving_step(id);
      ++c.receives;
      ++deliveries;
      phase.to(kPublish);
      c.publish_msgs +=
          static_cast<std::int64_t>(exec.sending_step(receiver).size());
      ++c.publish_calls;
      phase.to(kLoop);
    }
  }
  Span s(tr, kMerge);
  return verdict_of(exec, cell.spec, /*async=*/true);
}

// --------------------------------------------------------- replica passes

/// One JSONL record per trial and per cell (trace mode), held in memory
/// until the process exits.
class SpanLog {
 public:
  explicit SpanLog(std::int64_t origin) : origin_(origin) {}

  void trial(int cell, std::uint64_t seed, std::int64_t start,
             std::int64_t end, const Tallies& before, const Tallies& after) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"kind\": \"trial\", \"id\": \"%d/%" PRIu64
                  "\", \"parent\": \"%d\"",
                  cell, seed, cell);
    record(head, start, end, before, after);
  }
  void cell(int cell, std::int64_t start, std::int64_t end,
            const Tallies& before, const Tallies& after) {
    char head[96];
    std::snprintf(head, sizeof head,
                  "{\"kind\": \"cell\", \"id\": \"%d\", \"parent\": \"pass\"",
                  cell);
    record(head, start, end, before, after);
  }
  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  void record(const char* head, std::int64_t start, std::int64_t end,
              const Tallies& before, const Tallies& after) {
    char buf[96];
    text_ += head;
    std::snprintf(buf, sizeof buf, ", \"start_ns\": %" PRId64
                  ", \"end_ns\": %" PRId64 ", \"layers\": {",
                  start - origin_, end - origin_);
    text_ += buf;
    bool first = true;
    for (int l = 0; l < kLayerCount; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const std::int64_t calls = after[li].calls - before[li].calls;
      const std::int64_t ns = after[li].ns - before[li].ns;
      if (calls == 0 && ns == 0) continue;
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"calls\": %" PRId64 ", \"ns\": %" PRId64 "}",
                    first ? "" : ", ", kLayerName[li], calls, ns);
      text_ += buf;
      first = false;
    }
    text_ += "}}\n";
  }

  std::int64_t origin_;
  std::string text_;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

struct CellOut {
  core::CampaignCell cell;  ///< coords + report + metric_sum
  core::MeasureOneAccumulator acc;
  std::uint64_t cell_digest = 0;  ///< of campaign_cell_json
  std::uint64_t lens_digest = 0;  ///< of latency_report_json; 0: lens off
  Counters counters;
};

/// What a sweep must produce: the FNV-1a digest of every artifact, so a
/// run holds a few bytes per cell, not the artifacts themselves.
struct Expected {
  std::vector<std::uint64_t> cells;
  std::vector<std::uint64_t> lens;
  std::uint64_t summary = 0;
  std::int64_t violations = 0;  ///< violating trials in the sweep
};

struct ReplicaPass {
  std::vector<CellOut> cells;
  Expected expect;
  Counters counters;
  double wall_s = 0.0;
  std::vector<double> trial_ms;
  Tallies layers{};
};

/// Writes one artifact and returns its digest.
std::uint64_t write_artifact(const std::string& path, const std::string& body,
                             Counters& c) {
  core::write_file_atomic(path, body);
  ++c.artifact_files;
  c.artifact_bytes += static_cast<std::int64_t>(body.size());
  return fnv1a(body);
}

/// compute_cell + run_measure_one for one cell: the same chunk partition
/// and merge order, then the lens sidecar and the cell artifact.
void replica_cell(const core::CampaignConfig& config, const CellSpec& cell,
                  core::WorkerScratch& scratch, const std::string& dir,
                  Tracer* tr, SpanLog* log, CellOut& out,
                  std::vector<double>& trial_ms) {
  struct Partial {
    core::MeasureOneAccumulator acc;
    lens::LatencyAccumulator lat;
  };
  Counters& c = out.counters;
  ParallelConfig par;
  par.chunk_size = config.chunk_size;
  std::vector<Partial> parts(
      static_cast<std::size_t>(chunk_count(config.trials, par)));
  const bool async = config.model == core::CampaignModel::kAsync;
  const std::int64_t chunk = std::max(1, par.chunk_size);
  for (std::size_t ci = 0; ci < parts.size(); ++ci) {
    const std::int64_t begin = static_cast<std::int64_t>(ci) * chunk;
    const std::int64_t end = std::min<std::int64_t>(begin + chunk, config.trials);
    for (std::int64_t i = begin; i < end; ++i) {
      const std::uint64_t seed =
          cell.coords.seed0 + static_cast<std::uint64_t>(i);
      const std::int64_t t0 = now_ns();
      const Tallies before = tr != nullptr ? tr->tally() : Tallies{};
      const core::TrialVerdict v =
          async ? async_trial(cell, seed, scratch, tr, c)
                : window_trial(cell, seed, scratch, tr, c);
      {
        Span s(tr, kMerge);
        parts[ci].acc.add(seed, v);
      }
      ++c.merge_calls;
      ++c.trials;
      if (config.lens && scratch.trace) {
        Span s(tr, kLensFold);
        parts[ci].lat.add(*scratch.trace);
        ++c.lens_folds;
      }
      trial_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (log != nullptr) {
        log->trial(cell.coords.index, seed, t0, now_ns(), before, tr->tally());
      }
    }
  }

  const std::int64_t f0 = now_ns();
  const Tallies before = tr != nullptr ? tr->tally() : Tallies{};
  out.cell = cell.coords;
  {
    Span s(tr, kMerge);
    core::MeasureOneAccumulator acc;
    for (const Partial& p : parts) acc.merge(p.acc);
    (void)acc.finalize();  // run_measure_one's chunk-order report
    out.acc.merge(acc);
    out.cell.metric_sum = out.acc.metric_sum();
    out.cell.report = out.acc.finalize(async);
  }
  c.merge_calls += static_cast<std::int64_t>(parts.size()) + 3;
  lens::LatencyReport lens_report;
  if (config.lens) {
    Span s(tr, kLensFold);
    lens::LatencyAccumulator lat;
    for (const Partial& p : parts) lat.merge(p.lat);
    lens_report = lat.finalize(cell.coords.t);
    c.lens_folds += static_cast<std::int64_t>(parts.size()) + 1;
  }
  {
    Span s(tr, kArtifact);
    if (config.lens) {
      out.lens_digest =
          write_artifact(cell_path(config, dir, cell.coords.index, true),
                         core::latency_report_json(lens_report), c);
    }
    out.cell_digest =
        write_artifact(cell_path(config, dir, cell.coords.index, false),
                       core::campaign_cell_json(config, out.cell), c);
  }
  if (log != nullptr) {
    log->cell(cell.coords.index, f0, now_ns(), before, tr->tally());
  }
}

/// run_campaign's phases 1, 3 and 4 on the replica run loops, on one thread
/// (the merge order is the cell order either way, so the bytes match).
ReplicaPass replica_pass(const core::CampaignConfig& config,
                         const std::vector<CellSpec>& cells,
                         const std::string& dir, bool traced, SpanLog* log) {
  ReplicaPass pass;
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  const std::int64_t start = now_ns();
  if (tr != nullptr) tracer.start();

  {
    Span s(tr, kArtifact);
    fs::create_directories(dir);
  }
  core::WorkerScratch scratch;
  pass.cells.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    replica_cell(config, cells[i], scratch, dir, tr, log, pass.cells[i],
                 pass.trial_ms);
  }

  core::CampaignResult result;
  result.config = config;
  core::MeasureOneAccumulator summary;
  {
    Span s(tr, kMerge);
    for (CellOut& out : pass.cells) {
      summary.merge(out.acc);
      result.cells.push_back(out.cell);
    }
    result.summary = summary.finalize(config.model == core::CampaignModel::kAsync);
  }
  pass.counters.merge_calls += static_cast<std::int64_t>(cells.size()) + 1;
  {
    Span s(tr, kArtifact);
    pass.expect.summary = write_artifact(
        (fs::path(dir) / (config.name + "_summary.json")).string(),
        core::campaign_summary_json(result), pass.counters);
    write_artifact((fs::path(dir) / (config.name + "_timing.json")).string(),
                   core::campaign_timing_json(result), pass.counters);
  }
  if (tr != nullptr) {
    tracer.stop();
    pass.layers = tracer.tally();
  }
  pass.wall_s = seconds_between(start, now_ns());
  pass.expect.violations =
      static_cast<std::int64_t>(result.summary.violating_seeds.size());
  for (const CellOut& out : pass.cells) {
    pass.counters.add(out.counters);
    pass.expect.cells.push_back(out.cell_digest);
    if (config.lens) pass.expect.lens.push_back(out.lens_digest);
  }
  return pass;
}

// ------------------------------------------------------------------ checks

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct Checks {
  bool complete = true;    ///< every requested trial present, no failed cell
  bool replica = true;     ///< cell artifacts match the replica's digests
  bool lens_bytes = true;  ///< lens sidecars match the replica's digests
  bool digest = true;      ///< summary digest equal to the replica's
  std::int64_t missing = 0;

  [[nodiscard]] bool ok() const {
    return complete && replica && lens_bytes && digest;
  }
  void fold(const Checks& o) {
    complete = complete && o.complete;
    replica = replica && o.replica;
    lens_bytes = lens_bytes && o.lens_bytes;
    digest = digest && o.digest;
    missing += o.missing;
  }
};

void problem(const std::string& what) {
  std::fprintf(stderr, "bench_e1_campaign: CHECK FAILED: %s\n", what.c_str());
}

/// Digest of a file's bytes; nullopt when it cannot be read.
std::optional<std::uint64_t> file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return fnv1a(ss.str());
}

/// Check a run_campaign result and its artifacts under `dir` against a
/// replica pass of the same config.
Checks check_sweep(const core::CampaignConfig& config,
                   const core::CampaignResult& r, const Expected& expect,
                   const std::string& dir) {
  Checks out;
  const std::int64_t requested =
      static_cast<std::int64_t>(expect.cells.size()) * config.trials;
  std::int64_t present = 0;
  for (const core::CampaignCell& cell : r.cells) {
    if (!cell.failed) present += cell.report.trials;
  }
  out.missing = std::max<std::int64_t>(0, requested - present);
  if (out.missing > 0 || r.cells.size() != expect.cells.size()) {
    out.complete = false;
    problem(std::to_string(out.missing) + " of " + std::to_string(requested) +
            " requested trials missing");
  }
  const std::size_t cells = std::min(r.cells.size(), expect.cells.size());
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint64_t want = expect.cells[i];
    if (r.cells[i].failed) {
      out.complete = false;
      problem("cell " + std::to_string(i) + " failed");
      continue;
    }
    if (fnv1a(core::campaign_cell_json(config, r.cells[i])) != want) {
      out.replica = false;
      problem("cell " + std::to_string(i) + " differs from the replica");
    }
    if (file_digest(cell_path(config, dir, static_cast<int>(i), false)) !=
        want) {
      out.replica = false;
      problem("cell artifact " + std::to_string(i) + " differs from the replica");
    }
    if (config.lens &&
        file_digest(cell_path(config, dir, static_cast<int>(i), true)) !=
            expect.lens[i]) {
      out.lens_bytes = false;
      problem("lens sidecar " + std::to_string(i) + " differs from the replica");
    }
  }
  const std::uint64_t summary = fnv1a(core::campaign_summary_json(r));
  if (summary != expect.summary) {
    out.digest = false;
    problem("summary digest " + hex64(summary) + " != replica " +
            hex64(expect.summary));
  }
  return out;
}

Checks check_replica(const Expected& got, const Expected& expect) {
  Checks out;
  out.replica = got.cells == expect.cells;
  out.lens_bytes = got.lens == expect.lens;
  out.digest = got.summary == expect.summary &&
               got.violations == expect.violations;
  if (!out.ok()) problem("traced replica differs from the untraced replica");
  return out;
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::string config;
  std::string out = ".";
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      require(i + 1 < argc, "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--config") {
      a.config = value();
    } else if (arg == "--out") {
      a.out = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      require(!v.empty() && end != nullptr && *end == '\0',
              "--seed wants a non-negative integer, got '" + v + "'");
      a.have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else {
      throw std::runtime_error("unknown argument '" + arg + "'");
    }
  }
  require(!a.workload.empty() && !a.config.empty() && a.have_seed,
          "usage: bench_e1_campaign --workload NAME --config PATH --seed S "
          "[--seconds X] [--out DIR] [--trace] [--smoke]");
  return a;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

/// The config as the benchmark runs it: the seed argument overrides the
/// file's, the pool is capped at the host's CPUs, and output goes where
/// the benchmark says.
core::CampaignConfig load_config(const Args& a, const std::string& out_dir) {
  core::CampaignConfig cfg = core::load_campaign_config(a.config);
  cfg.seed = a.seed;
  if (a.smoke) cfg.trials = 2;
  ParallelConfig par;
  par.threads = cfg.threads;
  cfg.threads = std::min(par.resolved_threads(), host_cpus());
  cfg.output_dir = out_dir;
  cfg.resume = false;
  return cfg;
}

ParallelConfig parallel_of(const core::CampaignConfig& cfg) {
  ParallelConfig par;
  par.threads = cfg.threads;
  par.chunk_size = cfg.chunk_size;
  return par;
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] std::string sub(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
  std::string path;
};

void remove_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Peak RSS of this process image in MiB since the last reset_peak_rss().
/// VmHWM belongs to the current address space; getrusage's ru_maxrss
/// survives execve and would report the launching process's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Returns freed heap to the kernel, then restarts the peak-RSS count at
/// the current RSS, so the peak read later covers only what runs after.
void reset_peak_rss() {
  malloc_trim(0);
  // aa-lint: write-ok(a procfs control file of this process, not a file)
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  require(out.good(), "cannot reset the peak RSS via /proc/self/clear_refs");
}

// Tiny JSON emitter for the result line.
class JsonLine {
 public:
  JsonLine& key(const std::string& k) {
    sep();
    out_ += "\"" + k + "\": ";
    return *this;
  }
  JsonLine& num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonLine& num(std::int64_t v) {
    out_ += std::to_string(v);
    return *this;
  }
  JsonLine& str(const std::string& v) {
    out_ += "\"" + v + "\"";
    return *this;
  }
  JsonLine& boolean(bool v) {
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonLine& nums(const std::vector<double>& vs) {
    out_ += "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out_ += ", ";
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", vs[i]);
      out_ += buf;
    }
    out_ += "]";
    return *this;
  }
  JsonLine& open() {
    out_ += "{";
    first_ = true;
    return *this;
  }
  JsonLine& close() {
    out_ += "}";
    first_ = false;
    return *this;
  }
  JsonLine& raw(const std::string& s) {
    out_ += s;
    return *this;
  }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  void sep() {
    if (!first_) out_ += ", ";
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
};

void emit_counters(JsonLine& j, const Counters& c) {
  j.key("counters").open();
#define E1_EMIT(name) j.key(#name).num(c.name);
  E1_COUNTERS(E1_EMIT)
#undef E1_EMIT
  j.close();
}

struct Sweep {
  core::CampaignResult result;
  double wall_s = 0.0;
};

/// One user-path sweep: a fresh config, context and output directory (what
/// every CLI run pays; untimed here, set-up is sampled on its own), then
/// the timed run_campaign. The context dies with the call.
Sweep user_sweep(const Args& a, const std::string& out_dir, int threads,
                 bool resume) {
  Sweep s;
  core::CampaignConfig cfg = load_config(a, out_dir);
  if (threads > 0) cfg.threads = threads;
  cfg.resume = resume;
  core::CampaignContext ctx(parallel_of(cfg));
  fs::create_directories(out_dir);
  const std::int64_t t1 = now_ns();
  s.result = core::run_campaign(cfg, ctx);
  s.wall_s = seconds_between(t1, now_ns());
  return s;
}

/// Each probe call is cut into this many equal slices, with set-up
/// samples after each.
constexpr int kProbeSlices = 25;
/// Timed set-up samples after each slice, following one untimed set-up.
constexpr int kSetupSamplesPerSlice = 4;
constexpr int kMinReps = 3;
/// Probe seconds per second of timed sweep.
constexpr double kProbeShare = 0.5;

int run(const Args& a) {
  const ScratchDir scratch(
      (fs::path(a.out) / ("tmp-" + a.workload + "-" + std::to_string(getpid())))
          .string());
  const core::CampaignConfig cfg = load_config(a, "");
  const std::vector<CellSpec> cells = enumerate_cells(cfg);
  const std::int64_t sweep_trials =
      static_cast<std::int64_t>(cells.size()) * cfg.trials;
  const bool window_model = cfg.model == core::CampaignModel::kWindow;
  const int threads = cfg.threads;

  std::fprintf(stderr,
               "e1 %s: %zu cells x %d trials, %s model, %d thread(s), seed %"
               PRIu64 "%s\n",
               a.workload.c_str(), cells.size(), cfg.trials,
               window_model ? "window" : "async", threads, a.seed,
               a.trace ? ", traced" : "");

  JsonLine j;
  j.open();
  j.key("workload").str(a.workload);
  j.key("seed").num(static_cast<std::int64_t>(a.seed));
  j.key("trace").boolean(a.trace);
  j.key("smoke").boolean(a.smoke);
  j.key("model").str(window_model ? "window" : "async");
  j.key("fingerprint").open();
  j.key("nproc").num(static_cast<std::int64_t>(host_cpus()));
  j.key("compiler").str(AA_E1_COMPILER);
  j.key("build_type").str(AA_E1_BUILD_TYPE);
  j.key("threads").num(static_cast<std::int64_t>(threads));
  j.close();
  j.key("cells").num(static_cast<std::int64_t>(cells.size()));
  j.key("trials_per_sweep").num(sweep_trials);

  Checks checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  auto account = [&](const Checks& c) {
    checks.fold(c);
    attempted += sweep_trials;
    if (!c.ok()) failed += sweep_trials;
  };

  if (!a.trace) {
    // Set-up is about ten microseconds, and the host's speed over a
    // fraction of a millisecond swings by up to 1.7x (its speed over
    // seconds by far less). So every set-up sample is paired with one
    // probe unit timed right after it, which sees the same moment of the
    // host, and the samples come in short bursts after each slice of the
    // probe, from many moments spread over the run. Each burst starts
    // with an untimed set-up, because the first after a slice runs from
    // cold caches and takes 20-120 us, scattered by what ran before it.
    // The output directory is left out: run_campaign creates it, and a
    // mkdir on this filesystem takes 20 us or 600 us depending on its
    // journal, not on the program.
    std::vector<double> setups;
    std::vector<double> setup_units;
    e1::HostProbe probe;
    auto probe_and_sample = [&](double seconds) {
      for (int k = 0; k < kProbeSlices; ++k) {
        probe.run_for(seconds / kProbeSlices);
        for (int i = -1; i < kSetupSamplesPerSlice; ++i) {
          double setup = 0.0;
          {
            const std::int64_t t0 = now_ns();
            const core::CampaignConfig c =
                load_config(a, scratch.sub("setup"));
            const core::CampaignContext ctx(parallel_of(c));
            setup = seconds_between(t0, now_ns());
          }
          const double unit = probe.time_unit();
          if (i >= 0) {
            setups.push_back(setup);
            setup_units.push_back(unit);
          }
        }
      }
    };

    // Untimed warm-up: the replica, which counts the sweep's work and
    // digests the outputs every sweep must reproduce, then one checked
    // user sweep. Peak RSS restarts after it, so it covers the timed
    // sweeps alone.
    //
    // Each sweep's output directory is deleted right after its checks.
    // Keeping them all to the end of the run was tried: campaign-sweep's
    // 2.6 MB of artifacts per sweep then pile up as dirty pages, whose
    // writeback lands in later sweeps, and its ten-run spread rose from
    // 0.05-0.10 to 0.15-0.17.
    Expected expect;
    Counters work;
    {
      const ReplicaPass pass = replica_pass(cfg, cells, scratch.sub("warmup"),
                                            /*traced=*/false, nullptr);
      expect = pass.expect;
      work = pass.counters;
    }
    remove_dir(scratch.sub("warmup"));
    {
      const std::string dir = scratch.sub("warmup");
      const Sweep s = user_sweep(a, dir, 0, false);
      account(check_sweep(cfg, s.result, expect, dir));
      remove_dir(dir);
      probe_and_sample(kProbeShare * s.wall_s);
    }
    reset_peak_rss();

    // Each timed sweep is followed by the probe for kProbeShare of the
    // sweep's wall time, so the probe samples the host phases the sweeps
    // ran in, in proportion to the time they spent there.
    std::vector<double> walls;
    std::vector<double> probe_s;
    std::vector<double> probe_units;
    const std::int64_t start = now_ns();
    for (int k = 0;; ++k) {
      const bool enough = a.smoke ? k >= 1
                                  : k >= kMinReps &&
                                        seconds_between(start, now_ns()) >=
                                            a.seconds;
      if (enough) break;
      const std::string dir = scratch.sub("rep-" + std::to_string(k));
      const Sweep s = user_sweep(a, dir, 0, false);
      walls.push_back(s.wall_s);
      account(check_sweep(cfg, s.result, expect, dir));
      remove_dir(dir);
      const double s0 = probe.seconds();
      const std::int64_t u0 = probe.units();
      probe_and_sample(kProbeShare * s.wall_s);
      probe_s.push_back(probe.seconds() - s0);
      probe_units.push_back(static_cast<double>(probe.units() - u0));
    }
    j.key("digest").str(hex64(expect.summary));
    j.key("violations").num(expect.violations);
    j.key("windows").num(work.windows);
    j.key("deliveries").num(work.deliveries());
    j.key("setup_s").nums(setups);
    j.key("setup_unit_s").nums(setup_units);
    j.key("sweep_s").nums(walls);
    j.key("probe").open();
    j.key("reference_rate").num(e1::HostProbe::kReferenceUnitsPerSecond);
    j.key("seconds").nums(probe_s);
    j.key("units").nums(probe_units);
    j.close();
  } else {
    // Each iteration times a 1-thread user sweep, an untraced and a traced
    // replica pass checked against it, and the same sweep on min(4, nproc)
    // pool threads. A closing resume pass must restore every cell from the
    // last 1-thread sweep's artifacts.
    const int pool_threads = std::min(4, host_cpus());
    const std::string ref_dir = scratch.sub("ref");
    std::vector<double> one_s;
    std::vector<double> pool_s;
    std::vector<double> untraced_s;
    std::vector<double> trial_ms;
    std::vector<ReplicaPass> traced;
    SpanLog log(now_ns());
    std::uint64_t expect_summary = 0;
    std::int64_t violations = 0;
    const std::int64_t start = now_ns();
    for (int k = 0;; ++k) {
      const bool enough =
          k >= 1 && (a.smoke || seconds_between(start, now_ns()) >= a.seconds);
      if (enough) break;
      remove_dir(ref_dir);
      const Sweep one = user_sweep(a, ref_dir, 1, false);
      one_s.push_back(one.wall_s);
      // The two replica passes swap order every iteration, so neither
      // always follows a sweep's burst of artifact writes.
      auto untraced_pass = [&] {
        return replica_pass(cfg, cells, scratch.sub("untraced"),
                            /*traced=*/false, nullptr);
      };
      auto traced_pass = [&] {
        return replica_pass(cfg, cells, scratch.sub("traced"), /*traced=*/true,
                            k == 0 ? &log : nullptr);
      };
      ReplicaPass u;
      ReplicaPass p;
      if (k % 2 == 0) {
        u = untraced_pass();
        p = traced_pass();
      } else {
        p = traced_pass();
        u = untraced_pass();
      }
      remove_dir(scratch.sub("untraced"));
      remove_dir(scratch.sub("traced"));
      account(check_sweep(cfg, one.result, u.expect, ref_dir));
      account(check_replica(p.expect, u.expect));
      if (pool_threads > 1) {
        const std::string pool_dir = scratch.sub("pool");
        const Sweep pool = user_sweep(a, pool_dir, pool_threads, false);
        pool_s.push_back(pool.wall_s);
        account(check_sweep(cfg, pool.result, u.expect, pool_dir));
        remove_dir(pool_dir);
      } else {
        pool_s.push_back(one.wall_s);
      }
      untraced_s.push_back(u.wall_s);
      trial_ms.insert(trial_ms.end(), u.trial_ms.begin(), u.trial_ms.end());
      expect_summary = u.expect.summary;
      violations = u.expect.violations;
      p.cells.clear();
      traced.push_back(std::move(p));
    }
    const Sweep res = user_sweep(a, ref_dir, 1, true);
    std::int64_t resumed = 0;
    for (const core::CampaignCell& c : res.result.cells) resumed += c.resumed;
    Checks rc;
    rc.complete = resumed == static_cast<std::int64_t>(cells.size());
    rc.digest = fnv1a(core::campaign_summary_json(res.result)) == expect_summary;
    if (!rc.complete) problem("resume did not restore every cell");
    if (!rc.digest) problem("resumed summary differs from the replica");
    checks.fold(rc);
    core::write_file_atomic(
        (fs::path(a.out) / ("trace_" + a.workload + ".jsonl")).string(),
        log.text());

    j.key("digest").str(hex64(expect_summary));
    j.key("violations").num(violations);
    j.key("windows").num(traced.front().counters.windows);
    j.key("deliveries").num(traced.front().counters.deliveries());
    j.key("pool").open();
    j.key("threads").num(static_cast<std::int64_t>(pool_threads));
    j.key("sweep_s").nums(pool_s);
    j.key("sweep_1thread_s").nums(one_s);
    j.close();
    j.key("resume").open();
    j.key("cells").num(resumed);
    j.key("wall_s").num(res.wall_s);
    j.close();
    j.key("untraced_s").nums(untraced_s);
    j.key("trial_ms").nums(trial_ms);
    j.key("passes").raw("[");
    for (std::size_t k = 0; k < traced.size(); ++k) {
      JsonLine pj;
      pj.open();
      pj.key("wall_s").num(traced[k].wall_s);
      pj.key("layers").open();
      for (int l = 0; l < kLayerCount; ++l) {
        const LayerTally& lt = traced[k].layers[static_cast<std::size_t>(l)];
        pj.key(kLayerName[static_cast<std::size_t>(l)]).open();
        pj.key("calls").num(lt.calls);
        pj.key("s").num(static_cast<double>(lt.ns) * 1e-9);
        pj.close();
      }
      pj.close();
      emit_counters(pj, traced[k].counters);
      pj.close();
      j.raw(k ? ", " : "").raw(pj.text());
    }
    j.raw("]");
  }

  j.key("checks").open();
  j.key("complete").boolean(checks.complete);
  j.key("replica").boolean(checks.replica);
  j.key("lens_bytes").boolean(checks.lens_bytes);
  j.key("digest").boolean(checks.digest);
  j.close();
  j.key("missing").num(checks.missing);
  j.key("attempted").num(attempted);
  j.key("failed").num(failed);
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.close();
  std::printf("%s\n", j.text().c_str());
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e1_campaign: %s\n", e.what());
    return 2;
  }
}
