#include "core/checker.hpp"

#include <utility>
#include <vector>

namespace aa::core {

namespace {

/// The checkers always run trials to the all-decided stop condition.
Experiment checker_spec(Experiment spec, bool lens) {
  spec.stop = StopCondition::kAllDecided;
  if (lens) spec.lens = true;
  return spec;
}

template <typename RunResult>
TrialVerdict verdict_of(const RunResult& r, std::int64_t metric) {
  TrialVerdict v;
  v.agreement = r.agreement;
  v.validity = r.validity;
  v.decided = r.decided;
  v.all_decided = r.all_decided;
  v.metric = metric;
  return v;
}

/// One check's chunks on the context's pool (inline without one), merged
/// in chunk order. Chunk boundaries depend only on (trials, chunk_size),
/// so the merged tallies — one division for the mean, at finalize — are
/// the same at any thread count.
MeasureOneReport run_check(const MeasureOneCheck& check, int trials,
                           CampaignContext& ctx,
                           MeasureOneAccumulator* acc_out,
                           lens::LatencyAccumulator* lat_out) {
  const ParallelConfig& par = ctx.parallel();
  std::vector<TrialTally> parts(
      static_cast<std::size_t>(chunk_count(trials, par)));
  parallel_for_chunks(
      trials, par,
      [&](int ci, std::int64_t begin, std::int64_t end) {
        check.run_trials(begin, end, ctx.worker_scratch(),
                         parts[static_cast<std::size_t>(ci)]);
      },
      ctx.pool());
  TrialTally total;
  for (const TrialTally& p : parts) total.merge(p);
  if (acc_out != nullptr) acc_out->merge(total.acc);
  if (lat_out != nullptr) lat_out->merge(total.lat);
  return total.acc.finalize(check.async());
}

}  // namespace

MeasureOneCheck::MeasureOneCheck(const Experiment& spec,
                                 WindowAdversaryFactory make_adversary,
                                 std::uint64_t seed0, bool lens)
    : runner_(checker_spec(spec, lens)),
      make_window_(std::move(make_adversary)),
      seed0_(seed0),
      lens_(lens) {}

MeasureOneCheck::MeasureOneCheck(const Experiment& spec,
                                 AsyncAdversaryFactory make_adversary,
                                 std::uint64_t seed0, bool lens)
    : runner_(checker_spec(spec, lens)),
      make_async_(std::move(make_adversary)),
      seed0_(seed0),
      lens_(lens) {}

void MeasureOneCheck::run_trials(std::int64_t begin, std::int64_t end,
                                 WorkerScratch& scratch,
                                 TrialTally& out) const {
  for (std::int64_t i = begin; i < end; ++i) {
    const std::uint64_t seed = seed0_ + static_cast<std::uint64_t>(i);
    // The async decision metric is the message-chain length; finalize
    // also mirrors it into mean_windows_to_first, which campaign artifacts
    // carry.
    if (make_async_) {
      const auto adv = make_async_(seed);
      const AsyncRunOutcome r = runner_.run_async(*adv, seed, scratch);
      out.acc.add(seed, verdict_of(r, r.chain_at_decision));
    } else {
      const auto adv = make_window_(seed);
      const WindowRunResult r = runner_.run_window(*adv, seed, scratch);
      out.acc.add(seed, verdict_of(r, r.windows_to_first));
    }
    if (lens_ && scratch.trace) out.lat.add(*scratch.trace);
  }
}

MeasureOneReport check_measure_one_window(
    const Experiment& spec, const WindowAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc, lens::LatencyAccumulator* lat) {
  return run_check(MeasureOneCheck(spec, make_adversary, seed0, lat != nullptr),
                   trials, ctx, acc, lat);
}

MeasureOneReport check_measure_one_async(
    const Experiment& spec, const AsyncAdversaryFactory& make_adversary,
    int trials, std::uint64_t seed0, CampaignContext& ctx,
    MeasureOneAccumulator* acc, lens::LatencyAccumulator* lat) {
  return run_check(MeasureOneCheck(spec, make_adversary, seed0, lat != nullptr),
                   trials, ctx, acc, lat);
}

}  // namespace aa::core
