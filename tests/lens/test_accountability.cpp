#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/window_adversaries.hpp"
#include "core/checker.hpp"
#include "core/report.hpp"
#include "lens/accountability.hpp"
#include "lens/trace.hpp"
#include "protocols/factory.hpp"
#include "util/rng.hpp"

namespace aa::lens {
namespace {

constexpr int kN = 6;

/// Drive one synthetic trial into `trace` purely through the engine hooks,
/// as a deterministic function of `seed`: publishes (with occasional
/// same-key equivocation pairs), deliveries, suppressions, and decisions.
void synthetic_trial(WindowTrace& trace, std::uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 7);
  trace.begin_trial(kN);
  for (std::int64_t w = 0; w < 4; ++w) {
    for (sim::ProcId s = 0; s < kN; ++s) {
      std::vector<sim::StagedMessage> items;
      for (sim::ProcId r = 0; r < kN; ++r) {
        sim::Message m;
        m.round = static_cast<std::int32_t>(w);
        m.kind = 1;
        m.value = static_cast<std::int32_t>(rng.next_u64() % 2);
        items.push_back({r, m});
      }
      if (rng.next_double() < 0.2) {
        // Force a same-key conflict (random bits often conflict already;
        // this makes at least one equivocation per such batch certain).
        items.back().msg.value = 1 - items.front().msg.value;
      }
      trace.on_publish(s, items, w);
      std::vector<std::uint8_t> delivered(static_cast<std::size_t>(kN), 1);
      for (sim::ProcId r = 0; r < kN; ++r) {
        if (rng.next_double() < 0.8) {
          sim::Envelope env;
          env.id = w * 100 + s * 10 + r;
          env.sender = s;
          env.receiver = r;
          env.window = w;
          trace.on_deliver(env, w + static_cast<std::int64_t>(
                                        rng.next_u64() % 3),
                           w * 50 + r);
        } else {
          delivered[static_cast<std::size_t>(r)] = 0;
        }
      }
      trace.on_suppress_run(s, items, delivered.data());
    }
  }
  for (sim::ProcId p = 0; p < kN; ++p) {
    if (rng.next_double() < 0.7) trace.on_decision(p, 4, 220 + p);
  }
}

std::string report_bytes(const LatencyAccumulator& acc) {
  return core::latency_report_json(acc.finalize(/*t=*/1));
}

TEST(LatencyAccumulator, ShardedMergeMatchesSerialBitForBit) {
  const int trials = 96;
  WindowTrace trace;

  LatencyAccumulator serial;
  for (int i = 0; i < trials; ++i) {
    synthetic_trial(trace, 9000 + static_cast<std::uint64_t>(i));
    serial.add(trace);
  }
  const std::string serial_bytes = report_bytes(serial);
  EXPECT_EQ(serial.trials(), trials);

  for (const int shards : {1, 4, 16}) {
    std::vector<LatencyAccumulator> parts(static_cast<std::size_t>(shards));
    for (int i = 0; i < trials; ++i) {
      synthetic_trial(trace, 9000 + static_cast<std::uint64_t>(i));
      parts[static_cast<std::size_t>(i % shards)].add(trace);
    }
    // Flat merge in shard order.
    LatencyAccumulator flat;
    for (const auto& p : parts) flat.merge(p);
    EXPECT_EQ(report_bytes(flat), serial_bytes) << shards << " shards, flat";

    // Reverse-order merge: the accumulator promises any merge tree over
    // any partition — byte-compared through the canonical JSON.
    LatencyAccumulator reverse;
    for (int i = shards - 1; i >= 0; --i) {
      reverse.merge(parts[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(report_bytes(reverse), serial_bytes)
        << shards << " shards, reversed";
  }
}

TEST(LatencyAccumulator, EmptyIsTheMergeIdentity) {
  WindowTrace trace;
  synthetic_trial(trace, 77);
  LatencyAccumulator acc;
  acc.add(trace);
  const std::string before = report_bytes(acc);
  const LatencyAccumulator empty;
  EXPECT_EQ(empty.n(), -1);
  acc.merge(empty);
  EXPECT_EQ(report_bytes(acc), before);

  LatencyAccumulator other;
  other.merge(acc);  // merging INTO empty adopts the shape and tallies
  EXPECT_EQ(report_bytes(other), before);

  const LatencyReport empty_rep = empty.finalize(0);
  EXPECT_EQ(empty_rep.n, 0);
  EXPECT_TRUE(empty_rep.senders.empty());
  EXPECT_TRUE(empty_rep.blamed_equivocators.empty());
  EXPECT_TRUE(empty_rep.blamed_censored.empty());
}

// ---- checker integration: thread-count bit-identity and zero drift ---------

core::Experiment checker_spec() {
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(8, 0.5);
  spec.t = 1;
  spec.budget = 300;
  return spec;
}

core::WindowAdversaryFactory random_factory(int t) {
  return [t](std::uint64_t seed) {
    return std::make_unique<adversary::RandomWindowAdversary>(
        t, 0.1, Rng(seed * 9 + 2));
  };
}

void expect_measure_reports_identical(const core::MeasureOneReport& a,
                                      const core::MeasureOneReport& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.validity_violations, b.validity_violations);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.all_decided_runs, b.all_decided_runs);
  EXPECT_EQ(a.mean_windows_to_first, b.mean_windows_to_first);
  EXPECT_EQ(a.violating_seeds, b.violating_seeds);
}

TEST(LatencyAccumulator, CheckerLatencyReportBitIdenticalAcrossThreads) {
  const core::Experiment spec = checker_spec();
  const int trials = 64;
  std::string first_bytes;
  core::MeasureOneReport first_rep;
  for (const int threads : {1, 2, 8}) {
    ParallelConfig par;
    par.threads = threads;
    par.chunk_size = 8;
    core::CampaignContext ctx(par);
    LatencyAccumulator lat;
    const core::MeasureOneReport rep = core::check_measure_one_window(
        spec, random_factory(spec.t), trials, 4000, ctx, nullptr, &lat);
    ASSERT_EQ(lat.trials(), trials);
    const std::string bytes = core::latency_report_json(lat.finalize(spec.t));
    if (threads == 1) {
      first_bytes = bytes;
      first_rep = rep;
    } else {
      EXPECT_EQ(bytes, first_bytes) << "threads=" << threads;
      expect_measure_reports_identical(rep, first_rep);
    }
  }
}

TEST(LatencyAccumulator, LensNeverChangesTheMeasureOneReport) {
  const core::Experiment spec = checker_spec();
  const int trials = 48;
  for (const int threads : {1, 2, 8}) {
    ParallelConfig par;
    par.threads = threads;
    par.chunk_size = 8;
    core::CampaignContext ctx_off(par);
    const core::MeasureOneReport off = core::check_measure_one_window(
        spec, random_factory(spec.t), trials, 5000, ctx_off);
    core::CampaignContext ctx_on(par);
    LatencyAccumulator lat;
    const core::MeasureOneReport on = core::check_measure_one_window(
        spec, random_factory(spec.t), trials, 5000, ctx_on, nullptr, &lat);
    expect_measure_reports_identical(off, on);
  }
}

TEST(LatencyAccumulator, ChunksRunInAnyOrderProduceIdenticalBytes) {
  // A campaign runs each check's chunks (MeasureOneCheck::run_trials)
  // interleaved with other cells' chunks, in whatever order the pool picks
  // them; merged in chunk order, the tallies must match the checker's.
  const core::Experiment spec = checker_spec();
  const int trials = 64;
  ParallelConfig par;
  par.threads = 4;
  par.chunk_size = 8;
  core::CampaignContext pooled_ctx(par);
  LatencyAccumulator pooled_lat;
  const core::MeasureOneReport pooled = core::check_measure_one_window(
      spec, random_factory(spec.t), trials, 6000, pooled_ctx, nullptr,
      &pooled_lat);

  const core::MeasureOneCheck check(spec, random_factory(spec.t), 6000,
                                    /*lens=*/true);
  core::WorkerScratch scratch;
  std::vector<core::TrialTally> parts(trials / 8);
  for (int ci = trials / 8 - 1; ci >= 0; --ci) {
    check.run_trials(ci * 8, ci * 8 + 8, scratch,
                     parts[static_cast<std::size_t>(ci)]);
  }
  core::TrialTally total;
  for (const core::TrialTally& p : parts) total.merge(p);
  expect_measure_reports_identical(pooled,
                                   total.acc.finalize(check.async()));
  EXPECT_EQ(core::latency_report_json(pooled_lat.finalize(spec.t)),
            core::latency_report_json(total.lat.finalize(spec.t)));
}

}  // namespace
}  // namespace aa::lens
