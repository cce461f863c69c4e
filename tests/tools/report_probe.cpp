// report_probe: deterministic dump of checker / exhaustive / single-run
// (Runner) / campaign reports, used to verify that engine refactors keep
// every report bit-identical across commits and thread counts.
//
//   ./build/tests/tools/report_probe [threads...]
//
// Prints one line per (component, config, thread-count) with every report
// field at full precision. Diff the output of two builds to prove
// equivalence across commits; strip `threads=N` and diff the thread-count
// blocks against each other to prove thread invariance (CI does this at
// threads 1 and 8).
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/api.hpp"

using namespace aa;

namespace {

void print_measure_one(const char* tag, int threads,
                       const core::MeasureOneReport& r) {
  std::printf("%s threads=%d trials=%d agree_viol=%d valid_viol=%d "
              "decided=%d all_decided=%d mean_windows=%.17g mean_chain=%.17g "
              "seeds=[",
              tag, threads, r.trials, r.agreement_violations,
              r.validity_violations, r.decided_runs, r.all_decided_runs,
              r.mean_windows_to_first, r.mean_chain_at_decision);
  for (std::size_t i = 0; i < r.violating_seeds.size(); ++i) {
    std::printf("%s%" PRIu64, i ? "," : "", r.violating_seeds[i]);
  }
  std::printf("]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> thread_counts;
  for (int i = 1; i < argc; ++i) thread_counts.push_back(std::atoi(argv[i]));
  if (thread_counts.empty()) thread_counts = {1, 2, 8};

  const struct {
    protocols::ProtocolKind kind;
    const char* kname;
  } kinds[] = {{protocols::ProtocolKind::Reset, "reset"},
               {protocols::ProtocolKind::Forgetful, "forgetful"},
               {protocols::ProtocolKind::BenOr, "benor"},
               {protocols::ProtocolKind::Bracha, "bracha"}};

  for (const int threads : thread_counts) {
    aa::ParallelConfig par;
    par.threads = threads;
    core::CampaignContext ctx(par);

    // ---- window-model checker, every adversary ----
    for (const auto& k : kinds) {
      for (const char* adv :
           {"fair", "silencer", "split-keeper", "reset-storm", "random"}) {
        const int n = 16;
        const int t = 2;
        const auto rep = core::check_measure_one_window(
            core::Experiment{.kind = k.kind,
                             .inputs = protocols::split_inputs(n, 0.5),
                             .t = t,
                             .budget = 600},
            core::window_adversary_factory(adv, t), /*trials=*/40,
            /*seed0=*/1000, ctx);
        std::printf("window %s %s ", k.kname, adv);
        print_measure_one("", threads, rep);
      }
    }

    // ---- async checker, every scheduler ----
    for (const auto& k : kinds) {
      for (const char* adv : {"random-async", "fixed-crash", "async-split"}) {
        const int n = 10;
        const int t = 2;
        const auto rep = core::check_measure_one_async(
            core::Experiment{.kind = k.kind,
                             .inputs = protocols::split_inputs(n, 0.5),
                             .t = t,
                             .budget = 40000},
            core::async_adversary_factory(adv, t), /*trials=*/30,
            /*seed0=*/500, ctx);
        std::printf("async %s %s ", k.kname, adv);
        print_measure_one("", threads, rep);
      }
    }

    // ---- exhaustive checker ----
    {
      core::ExhaustiveOptions opt;
      opt.max_depth = 3;
      const auto th = protocols::canonical_thresholds(8, 1);
      const auto rep = core::exhaustive_check(
          1, th, protocols::split_inputs(8, 0.5), opt, ctx);
      std::printf("exhaustive threads=%d configs=%" PRId64 " transitions=%" PRId64
                  " depth=%d budget=%d agree=%d valid=%d\n",
                  threads, rep.configs_explored, rep.transitions,
                  rep.depth_completed, rep.budget_exhausted ? 1 : 0,
                  rep.agreement_ok ? 1 : 0, rep.validity_ok ? 1 : 0);
    }
  }

  // ---- single Runner runs (thread-independent) ----
  for (const auto& k : kinds) {
    for (const char* adv :
         {"fair", "silencer", "split-keeper", "reset-storm", "random"}) {
      const int n = 16;
      const int t = 2;
      auto a = core::window_adversary_factory(adv, t)(7);
      const auto r = core::Runner(core::Experiment{
                                      .kind = k.kind,
                                      .inputs = protocols::split_inputs(n, 0.5),
                                      .t = t,
                                      .budget = 500})
                         .run_window(*a, /*seed=*/77);
      std::printf("harness-window %s %s decided=%d all=%d val=%d wtf=%" PRId64
                  " wins=%" PRId64 " steps=%" PRId64 " resets=%" PRId64
                  " agree=%d valid=%d\n",
                  k.kname, adv, r.decided ? 1 : 0, r.all_decided ? 1 : 0,
                  r.decision, r.windows_to_first, r.windows_total, r.steps,
                  r.total_resets, r.agreement ? 1 : 0, r.validity ? 1 : 0);
    }
    for (const char* adv : {"random-async", "fixed-crash", "async-split"}) {
      const int n = 10;
      const int t = 2;
      auto a = core::async_adversary_factory(adv, t)(11);
      const auto r = core::Runner(core::Experiment{
                                      .kind = k.kind,
                                      .inputs = protocols::split_inputs(n, 0.5),
                                      .t = t,
                                      .budget = 60000})
                         .run_async(*a, /*seed=*/33);
      std::printf("harness-async %s %s decided=%d all=%d val=%d deliv=%" PRId64
                  " chain=%" PRId64 " crashes=%" PRId64
                  " limit=%d agree=%d valid=%d\n",
                  k.kname, adv, r.decided ? 1 : 0, r.all_decided ? 1 : 0,
                  r.decision, r.deliveries, r.chain_at_decision, r.crashes,
                  r.hit_limit ? 1 : 0, r.agreement ? 1 : 0,
                  r.validity ? 1 : 0);
    }
  }

  // ---- Byzantine runs ----
  for (const char* adv : {"fair", "silencer", "split-keeper"}) {
    const int n = 16;
    const int t = 2;
    auto a = core::window_adversary_factory(adv, t)(3);
    const auto r =
        core::Runner(
            core::Experiment{
                .kind = protocols::ProtocolKind::Reset,
                .inputs = protocols::split_inputs(n, 0.5),
                .t = t,
                .budget = 500,
                .byzantine = core::ByzantineSpec{
                    .count = 2,
                    .strategy = protocols::ByzantineStrategy::Equivocate,
                    .pre_crashed = {5}}})
            .run_byzantine(*a, /*seed=*/13);
    std::printf("harness-byz %s hd=%d had=%d ha=%d hv=%d wins=%" PRId64 "\n",
                adv, r.honest_decided, r.honest_all_decided ? 1 : 0,
                r.honest_agreement ? 1 : 0, r.honest_validity ? 1 : 0,
                r.windows_total);
  }

  // ---- campaign engine: merged summary per thread count ----
  // The accumulator-backed summary is exactly associative, so every line
  // in this block must be identical whatever the thread count.
  {
    core::CampaignConfig cfg;
    cfg.name = "probe";
    cfg.n = {8, 12};
    cfg.t = {1};
    cfg.protocols = {"reset", "forgetful"};
    cfg.memory_k = {0, 3};
    cfg.adversaries = {"fair", "random"};
    cfg.trials = 10;
    cfg.budget = 400;
    cfg.seed = 2000;
    cfg.chunk_size = 4;
    for (const int threads : thread_counts) {
      cfg.threads = threads;
      const auto result = core::run_campaign(cfg);
      std::printf("campaign summary cells=%d ",
                  static_cast<int>(result.cells.size()));
      print_measure_one("", threads, result.summary);
      for (const auto& cell : result.cells) {
        std::printf("campaign cell %d %s n=%d k=%d %s seed0=%" PRIu64 " ",
                    cell.index, cell.protocol.c_str(), cell.n, cell.memory_k,
                    cell.adversary.c_str(), cell.seed0);
        print_measure_one("", threads, cell.report);
      }
    }
  }
  return 0;
}
