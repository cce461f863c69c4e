#include "core/checker.hpp"

#include <vector>

namespace aa::core {

namespace {

/// Shared trial engine: run `trial(seed0 + i, scratch)` for i in
/// [0, trials), sharded into fixed chunks across the context's pool (or
/// inline). Per-chunk accumulators hold exact integers, so merging them
/// gives the same report — one division for the mean, at finalize — at
/// any thread count. `async_metric` selects finalize's async convention.
/// When `acc_out` is non-null the merged tallies are also folded into it.
template <typename RunTrial>
MeasureOneReport run_measure_one(int trials, std::uint64_t seed0,
                                 bool async_metric, CampaignContext& ctx,
                                 MeasureOneAccumulator* acc_out,
                                 lens::LatencyAccumulator* lat_out,
                                 bool inline_trials, const RunTrial& trial) {
  struct Partial {
    MeasureOneAccumulator acc;
    lens::LatencyAccumulator lat;
  };
  const ParallelConfig& par = ctx.parallel();
  std::vector<Partial> parts(
      static_cast<std::size_t>(chunk_count(trials, par)));

  // Cooperative cancellation (campaign cell timeouts): once the context's
  // token is cancelled, remaining chunks are skipped entirely. Finished
  // chunks keep their tallies, so the merged (partial) report is still a
  // deterministic function of which chunks completed — and completeness is
  // detectable as rep.trials < trials.
  CancelToken& cancel = ctx.cancel_token();
  const auto body = [&](int ci, std::int64_t begin, std::int64_t end) {
    if (cancel.cancelled()) return;
    Partial& p = parts[static_cast<std::size_t>(ci)];
    WorkerScratch& scratch = ctx.worker_scratch();
    for (std::int64_t i = begin; i < end; ++i) {
      const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
      const TrialVerdict v = trial(seed, scratch);
      p.acc.add(seed, v);
      if (lat_out != nullptr && scratch.trace) p.lat.add(*scratch.trace);
    }
  };
  // inline_trials: the whole check is already one task on the shared pool
  // (the parallel-cells campaign path), so run every chunk on THIS thread;
  // re-sharding onto the pool this task occupies would hand other threads
  // the per-worker scratch it is using. Chunk boundaries do not depend on
  // the pool, so the merged bytes match.
  parallel_for_chunks(trials, par, body, inline_trials ? nullptr : ctx.pool());

  MeasureOneAccumulator acc;
  for (const Partial& p : parts) acc.merge(p.acc);
  const MeasureOneReport rep = acc.finalize(async_metric);
  if (acc_out != nullptr) acc_out->merge(acc);
  if (lat_out != nullptr) {
    for (const Partial& p : parts) lat_out->merge(p.lat);
  }
  return rep;
}

/// The checkers always run trials to the all-decided stop condition.
Experiment checker_spec(Experiment spec) {
  spec.stop = StopCondition::kAllDecided;
  return spec;
}

}  // namespace

MeasureOneReport check_measure_one_window(
    const Experiment& spec, const WindowAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc, lens::LatencyAccumulator* lat,
    bool inline_trials) {
  // One spec for every trial; Runner::run_window is const and thread-safe,
  // so the workers share it.
  Experiment s = checker_spec(spec);
  if (lat != nullptr) s.lens = true;
  const Runner runner(s);
  return run_measure_one(
      trials, seed0, /*async_metric=*/false, ctx, acc, lat, inline_trials,
      [&](std::uint64_t seed, WorkerScratch& scratch) {
        auto adv = make_adversary(seed);
        const WindowRunResult r = runner.run_window(*adv, seed, scratch);
        TrialVerdict v;
        v.agreement = r.agreement;
        v.validity = r.validity;
        v.decided = r.decided;
        v.all_decided = r.all_decided;
        v.metric = r.windows_to_first;
        return v;
      });
}

MeasureOneReport check_measure_one_async(
    const Experiment& spec, const AsyncAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc, lens::LatencyAccumulator* lat,
    bool inline_trials) {
  Experiment s = checker_spec(spec);
  if (lat != nullptr) s.lens = true;
  const Runner runner(s);
  // The async decision metric is the message-chain length; finalize also
  // mirrors it into mean_windows_to_first, which campaign artifacts carry.
  return run_measure_one(
      trials, seed0, /*async_metric=*/true, ctx, acc, lat, inline_trials,
      [&](std::uint64_t seed, WorkerScratch& scratch) {
        auto adv = make_adversary(seed);
        const AsyncRunOutcome r = runner.run_async(*adv, seed, scratch);
        TrialVerdict v;
        v.agreement = r.agreement;
        v.validity = r.validity;
        v.decided = r.decided;
        v.all_decided = r.all_decided;
        v.metric = r.chain_at_decision;
        return v;
      });
}

}  // namespace aa::core
