// Experiment T1: the Theorem 4 threshold regime.
// For a grid of (n, t), validate threshold presets against the theorem's
// constraints and measure agreement/termination/mean-windows under a
// randomized adversary. Includes the canonical preset, a relaxed-T2 preset
// (legal only when t has slack — it speeds decisions), and a deliberately
// broken preset to show the constraint is load-bearing.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_json.hpp"
#include "core/api.hpp"

using namespace aa;

namespace {

struct Preset {
  const char* label;
  protocols::Thresholds th;
};

/// All trial work in this bench runs through ONE shared campaign context:
/// one worker per hardware thread, small chunks so even the 8-trial grid
/// rows shard, and the pool + per-worker Execution scratch persist across
/// every check (no spawn/join or arena regrowth per call).
const ParallelConfig kPool{.threads = 0, .chunk_size = 2};

void run_preset(Table& table, core::CampaignContext& ctx, int n, int t,
                const Preset& preset, int trials) {
  const std::string violation =
      protocols::threshold_violation(n, t, preset.th);
  const bool valid = violation.empty();

  // Valid presets terminate quickly; broken presets may stall some
  // processor forever, so cap their horizon (violations show up early).
  const std::int64_t max_windows = valid ? 50000 : 2000;
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = max_windows;
  spec.thresholds = preset.th;
  const core::MeasureOneReport rep = core::check_measure_one_window(
      spec,
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::RandomWindowAdversary>(t, 0.2,
                                                                  Rng(seed));
      },
      trials, /*seed0=*/static_cast<std::uint64_t>(n) * 100 + t, ctx);

  const double agree_rate =
      1.0 - static_cast<double>(rep.agreement_violations) / trials;
  const double term_rate =
      static_cast<double>(rep.all_decided_runs) / trials;
  table.add_row(
      {Table::fmt_int(n), Table::fmt_int(t), preset.label,
       std::to_string(preset.th.t1) + "/" + std::to_string(preset.th.t2) +
           "/" + std::to_string(preset.th.t3),
       valid ? "yes" : "NO", Table::fmt(agree_rate, 2),
       Table::fmt(term_rate, 2), Table::fmt(rep.mean_windows_to_first, 1)});
}

}  // namespace

int main() {
  std::printf("T1: threshold sweep (reset-agreement, split inputs, random "
              "adversary with resets)\n\n");
  Table table({"n", "t", "preset", "T1/T2/T3", "Thm4-ok", "agree", "term",
               "mean win"});
  // One long-lived pool + per-worker scratch for the whole bench.
  core::CampaignContext ctx(kPool);

  const int trials = 8;
  // At the resilience ceiling (t just under n/6), canonical is the ONLY
  // legal setting: T3 = n − 3t equals its floor ⌊n/2⌋ + 1 and T2 is pinned
  // to T1. With slack (smaller t), a lower (T2, T3) pair is legal and
  // decides sooner — the Theorem 4 remark about small t.
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{
           {13, 2}, {19, 3}, {25, 4}, {31, 5}}) {
    run_preset(table, ctx, n, t,
               Preset{"canonical", protocols::canonical_thresholds(n, t)},
               trials);
  }
  // Note on sizes: canonical thresholds with t far below the ceiling make
  // T2 = T1 a near-unanimity requirement, so the canonical side of the
  // comparison is itself exponentially slow (the F1 effect). (19, 2) keeps
  // both sides affordable; larger slack pairs would take hours.
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{{19, 2}}) {
    run_preset(table, ctx, n, t,
               Preset{"canonical", protocols::canonical_thresholds(n, t)},
               trials);
    const protocols::Thresholds relaxed{n - 2 * t, n / 2 + 1 + t, n / 2 + 1};
    run_preset(table, ctx, n, t, Preset{"relaxed-T2", relaxed}, trials);
  }
  // The cautionary rows: break 2*T3 > n (conflicting deterministic adopts
  // become possible) and T2 >= T3 + t (premature decisions vs resets).
  {
    const int n = 13;
    const int t = 2;
    const protocols::Thresholds broken_t3{n - 2 * t, n / 2 + 1, n / 2};
    run_preset(table, ctx, n, t, Preset{"BROKEN-T3", broken_t3}, 30);
    const protocols::Thresholds broken_t2{n - 2 * t, n - 3 * t, n - 3 * t};
    run_preset(table, ctx, n, t, Preset{"BROKEN-T2", broken_t2}, 30);
  }
  table.print(std::cout, "T1 threshold regime");
  std::printf("Theorem 4 rows (Thm4-ok = yes) must show agree = 1.00 and "
              "term = 1.00. BROKEN rows demonstrate the constraints are "
              "load-bearing (agreement/validity or termination degrade).\n");

  // ---- serial vs parallel throughput on one hot configuration ----------
  {
    const int n = 13;
    const int t = 2;
    const int tp_trials = 64;
    core::Experiment spec;
    spec.kind = protocols::ProtocolKind::Reset;
    spec.inputs = protocols::split_inputs(n, 0.5);
    spec.t = t;
    spec.budget = 50000;
    spec.thresholds = protocols::canonical_thresholds(n, t);
    const auto measure = [&](core::CampaignContext& run_ctx,
                             core::MeasureOneReport& rep) {
      const auto start = std::chrono::steady_clock::now();
      rep = core::check_measure_one_window(
          spec,
          [t](std::uint64_t seed) {
            return std::make_unique<adversary::RandomWindowAdversary>(
                t, 0.2, Rng(seed));
          },
          tp_trials, /*seed0=*/9000, run_ctx);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    core::MeasureOneReport serial_rep;
    core::MeasureOneReport parallel_rep;
    core::CampaignContext serial_ctx(
        ParallelConfig{.threads = 1, .chunk_size = 2});
    const double serial_s = measure(serial_ctx, serial_rep);
    // The parallel side reuses the bench-wide context: pool already up,
    // per-worker Executions already warm from the sweep above.
    const double parallel_s = measure(ctx, parallel_rep);
    const bool identical =
        serial_rep.mean_windows_to_first == parallel_rep.mean_windows_to_first &&
        serial_rep.all_decided_runs == parallel_rep.all_decided_runs &&
        serial_rep.violating_seeds == parallel_rep.violating_seeds;
    std::printf(
        "\nthroughput (n=%d, t=%d, %d trials): serial %.2f trials/s, "
        "parallel(%d threads) %.2f trials/s, speedup %.2fx, "
        "reports bit-identical: %s\n",
        n, t, tp_trials, tp_trials / serial_s, kPool.resolved_threads(),
        tp_trials / parallel_s, serial_s / parallel_s,
        identical ? "yes" : "NO");

    bench::BenchJson j("t1_threshold_sweep");
    j.set("config.n", n);
    j.set("config.t", t);
    j.set("config.trials", tp_trials);
    j.set("config.threads", kPool.resolved_threads());
    j.set("serial.trials_per_sec", tp_trials / serial_s);
    j.set("serial.wall_seconds", serial_s);
    j.set("parallel.trials_per_sec", tp_trials / parallel_s);
    j.set("parallel.wall_seconds", parallel_s);
    j.set("parallel_speedup", serial_s / parallel_s);
    j.set("reports_bit_identical", identical);
    const std::string path = j.write();
    if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
