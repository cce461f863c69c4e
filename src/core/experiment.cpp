#include "core/experiment.hpp"

#include <utility>

#include "util/check.hpp"

namespace aa::core {

bool check_agreement(const sim::Execution& exec) {
  return exec.outputs_agree();
}

bool check_validity(const sim::Execution& exec,
                    const std::vector<int>& inputs) {
  bool have[2] = {false, false};
  for (int b : inputs) {
    AA_REQUIRE(b == 0 || b == 1, "check_validity: inputs must be bits");
    have[b] = true;
  }
  for (sim::ProcId p = 0; p < exec.n(); ++p) {
    const int o = exec.output(p);
    if (o == sim::kBot) continue;
    if (!have[o]) return false;
  }
  return true;
}

CampaignContext::CampaignContext(const ParallelConfig& par) : par_(par) {
  const int threads = par_.resolved_threads();
  if (threads > 1) pool_ = std::make_unique<WorkerPool>(threads);
  // One slot per pool worker plus a dedicated trailing slot for the
  // (single) off-pool caller thread that helps execute in TaskGroup::wait.
  scratch_.resize(static_cast<std::size_t>(threads) + 1);
}

WorkerScratch& CampaignContext::worker_scratch() noexcept {
  const int i = pool_ ? pool_->worker_index() : -1;
  return scratch_[i >= 0 ? static_cast<std::size_t>(i) : scratch_.size() - 1];
}

Runner::Runner(Experiment spec) : spec_(std::move(spec)) {
  AA_REQUIRE(!spec_.inputs.empty(), "Runner: experiment needs inputs");
  AA_REQUIRE(spec_.t >= 0, "Runner: t must be non-negative");
  AA_REQUIRE(spec_.budget >= 0, "Runner: budget must be non-negative");
  AA_REQUIRE(spec_.memory_k >= 0, "Runner: memory_k must be non-negative");
  AA_REQUIRE(spec_.audit_every >= 0,
             "Runner: audit_every must be non-negative");
  if (spec_.byzantine) {
    const int n = static_cast<int>(spec_.inputs.size());
    AA_REQUIRE(spec_.byzantine->count >= 0 && spec_.byzantine->count <= n,
               "Runner: byzantine count out of [0, n]");
  }
}

sim::Execution& Runner::prepare(
    WorkerScratch& scratch, std::vector<std::unique_ptr<sim::Process>> procs,
    std::uint64_t seed) const {
  sim::ExecutionConfig cfg;
  cfg.audit = spec_.audit;
  cfg.audit_every = spec_.audit_every;
  if (spec_.lens) {
    // The trace lives in the scratch so it survives the run; the engine
    // re-arms it (begin_trial) for every trial.
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

WindowRunResult Runner::run_window(sim::WindowAdversary& adversary,
                                   std::uint64_t seed) const {
  WorkerScratch scratch;
  return run_window(adversary, seed, scratch);
}

WindowRunResult Runner::run_window(sim::WindowAdversary& adversary,
                                   std::uint64_t seed,
                                   WorkerScratch& scratch) const {
  AA_REQUIRE(!spec_.byzantine,
             "Runner::run_window is the honest path — use run_byzantine");
  sim::Execution& exec = prepare(
      scratch,
      protocols::make_processes(spec_.kind, spec_.t, spec_.inputs,
                                spec_.thresholds, spec_.memory_k),
      seed);
  const std::int64_t windows =
      spec_.stop == StopCondition::kAllDecided
          ? sim::run_until_all_decided(exec, adversary, spec_.t, spec_.budget)
          : sim::run_until_first_decision(exec, adversary, spec_.t,
                                          spec_.budget);

  WindowRunResult r;
  r.windows_total = windows;
  r.steps = exec.step_count();
  r.total_resets = exec.total_resets();
  r.decided = exec.decided_count() > 0;
  r.all_decided = exec.all_live_decided();
  if (const auto first = exec.first_decision()) {
    r.decision = first->value;
    r.windows_to_first = first->window + 1;  // decision inside window w ⇒ w+1 windows
  }
  r.agreement = check_agreement(exec);
  r.validity = check_validity(exec, spec_.inputs);
  return r;
}

AsyncRunOutcome Runner::run_async(sim::AsyncAdversary& adversary,
                                  std::uint64_t seed) const {
  WorkerScratch scratch;
  return run_async(adversary, seed, scratch);
}

AsyncRunOutcome Runner::run_async(sim::AsyncAdversary& adversary,
                                  std::uint64_t seed,
                                  WorkerScratch& scratch) const {
  AA_REQUIRE(!spec_.byzantine,
             "Runner::run_async is the honest path — use run_byzantine");
  sim::Execution& exec = prepare(
      scratch,
      protocols::make_processes(spec_.kind, spec_.t, spec_.inputs,
                                spec_.thresholds, spec_.memory_k),
      seed);
  const sim::AsyncRunResult rr =
      sim::run_async(exec, adversary, spec_.t, spec_.budget,
                     spec_.stop == StopCondition::kAllDecided);

  AsyncRunOutcome r;
  r.deliveries = rr.deliveries;
  r.crashes = rr.crashes;
  r.hit_limit = rr.hit_step_limit;
  r.decided = exec.decided_count() > 0;
  r.all_decided = exec.all_live_decided();
  if (const auto first = exec.first_decision()) {
    r.decision = first->value;
    r.chain_at_decision = first->chain;
  }
  r.agreement = check_agreement(exec);
  r.validity = check_validity(exec, spec_.inputs);
  return r;
}

ByzantineRunResult Runner::run_byzantine(sim::WindowAdversary& adversary,
                                         std::uint64_t seed) const {
  WorkerScratch scratch;
  return run_byzantine(adversary, seed, scratch);
}

ByzantineRunResult Runner::run_byzantine(sim::WindowAdversary& adversary,
                                         std::uint64_t seed,
                                         WorkerScratch& scratch) const {
  const ByzantineSpec byz = spec_.byzantine.value_or(ByzantineSpec{});
  const int n = static_cast<int>(spec_.inputs.size());
  sim::Execution& exec = prepare(
      scratch,
      protocols::make_byzantine_processes(spec_.kind, spec_.t, spec_.inputs,
                                          byz.count, byz.strategy,
                                          seed ^ 0xb52b52b52ULL,
                                          spec_.thresholds),
      seed);
  for (const sim::ProcId p : byz.pre_crashed) exec.crash(p);

  ByzantineRunResult r;
  auto honest_done = [&] {
    for (sim::ProcId p = byz.count; p < n; ++p) {
      if (!exec.crashed(p) && exec.output(p) == sim::kBot) return false;
    }
    return true;
  };
  std::int64_t w = 0;
  while (w < spec_.budget && !honest_done()) {
    sim::run_acceptable_window(exec, adversary, spec_.t);
    ++w;
  }
  r.windows_total = w;

  bool have[2] = {false, false};
  for (sim::ProcId p = byz.count; p < n; ++p) {
    const int b = spec_.inputs[static_cast<std::size_t>(p)];
    have[b] = true;
  }
  int seen = sim::kBot;
  r.honest_all_decided = true;
  for (sim::ProcId p = byz.count; p < n; ++p) {
    // Same exemption as honest_done(): a crashed honest processor owes no
    // output, so its kBot must not count as "not all decided".
    if (exec.crashed(p)) continue;
    const int o = exec.output(p);
    if (o == sim::kBot) {
      r.honest_all_decided = false;
      continue;
    }
    ++r.honest_decided;
    if (!have[o]) r.honest_validity = false;
    if (seen == sim::kBot) seen = o;
    else if (seen != o) r.honest_agreement = false;
  }
  return r;
}

}  // namespace aa::core
