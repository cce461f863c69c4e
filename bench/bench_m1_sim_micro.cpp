// Experiment M1 (DESIGN.md): engineering micro-benchmarks via
// google-benchmark — simulator substrate throughput.
//
// Unless the caller passes its own --benchmark_out, results are also
// written to BENCH_m1_sim_micro.json (google-benchmark's JSON schema) so
// the perf trajectory is machine-readable alongside the other benches.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/api.hpp"

using namespace aa;

namespace {

void BM_BufferAddDeliver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Message m;
  m.kind = 1;
  std::vector<sim::StagedMessage> broadcast;
  for (int r = 0; r < n; ++r) broadcast.push_back({r, m});
  for (auto _ : state) {
    sim::MessageBuffer buf(n);
    for (int s = 0; s < n; ++s) buf.add_batch(s, broadcast, 0, 1);
    for (int r = 0; r < n; ++r) {
      for (const sim::Envelope& env : buf.pending_to(r))
        buf.mark_delivered(env.id);
    }
    benchmark::DoNotOptimize(buf.delivered_count());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BufferAddDeliver)->Arg(8)->Arg(32)->Arg(128);

void BM_FairWindow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = std::max(1, n / 7);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Execution e(protocols::make_processes(
                         protocols::ProtocolKind::Reset, t,
                         protocols::split_inputs(n, 0.5)),
                     42);
    adversary::FairWindowAdversary fair;
    state.ResumeTiming();
    for (int w = 0; w < 10; ++w) sim::run_acceptable_window(e, fair, t);
    benchmark::DoNotOptimize(e.step_count());
  }
  state.SetItemsProcessed(state.iterations() * 10);
  state.SetLabel("windows");
}
BENCHMARK(BM_FairWindow)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_SplitKeeperWindow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = std::max(1, n / 7);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Execution e(protocols::make_processes(
                         protocols::ProtocolKind::Reset, t,
                         protocols::split_inputs(n, 0.5)),
                     42);
    adversary::SplitKeeperAdversary keeper;
    state.ResumeTiming();
    for (int w = 0; w < 10; ++w) sim::run_acceptable_window(e, keeper, t);
    benchmark::DoNotOptimize(e.step_count());
  }
  state.SetItemsProcessed(state.iterations() * 10);
  state.SetLabel("windows");
}
BENCHMARK(BM_SplitKeeperWindow)->Arg(8)->Arg(16)->Arg(32);

void BM_AsyncDelivery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = 1;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Execution e(protocols::make_processes(
                         protocols::ProtocolKind::BenOr, t,
                         protocols::split_inputs(n, 0.5)),
                     7);
    adversary::RandomAsyncScheduler sched(Rng(5));
    state.ResumeTiming();
    const auto r = sim::run_async(e, sched, t, 2000);
    benchmark::DoNotOptimize(r.deliveries);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
  state.SetLabel("deliveries");
}
BENCHMARK(BM_AsyncDelivery)->Arg(8)->Arg(16)->Arg(32);

void BM_AbstractWindow(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = std::max(1, n / 7);
  const auto th = protocols::canonical_thresholds(n, t);
  const auto cfg =
      core::initial_config(protocols::split_inputs(n, 0.5));
  const std::vector<bool> no_r(static_cast<std::size_t>(n), false);
  const std::vector<bool> all_s(static_cast<std::size_t>(n), true);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::apply_abstract_window(cfg, no_r, all_s, th, t, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AbstractWindow)->Arg(16)->Arg(64)->Arg(256);

void BM_TalagrandExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const prob::ProductSpace space =
      prob::ProductSpace::iid(prob::FiniteDist::uniform(2), n);
  std::vector<prob::Point> A;
  space.enumerate([&](const prob::Point& x, double) {
    int w = 0;
    for (int xi : x) w += xi;
    if (w <= 1) A.push_back(x);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob::check_exact(space, A, 2));
  }
}
BENCHMARK(BM_TalagrandExact)->Arg(8)->Arg(12);

void BM_RngThroughput(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngThroughput);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_m1_sim_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
