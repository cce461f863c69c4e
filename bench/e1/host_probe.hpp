// Host-speed probe of the e1 benchmark.
//
// The benchmark host is a shared VM whose speed drifts by up to a factor of
// two over seconds to minutes, while the process keeps its CPU: the
// slowdown happens inside the time the benchmark is charged, so wall and
// CPU time move together and neither can separate the program's speed
// from the host's. The probe measures the host's speed directly: a fixed
// unit of reference work (no repository code, compiled at fixed
// optimisation), run between the timed sweeps for a fixed share of their
// wall time, so it samples the same host phases the sweeps ran in.
//
// The unit fills a 64-entry array from a xorshift stream and sorts it,
// sixteen times: integer arithmetic and data-dependent branches on
// L1-resident data. Of the kernels tried (a dependent load chain through
// an L2-sized table, independent loads from it, pure ALU streams, and
// this one), it tracked the workloads' wall-time drift best.
//
// The host's speed during a run is the probe's rate over
// kReferenceUnitsPerSecond, the rate it had on the reference host: 1.0 at
// reference speed, 0.5 when the host runs at half of it. bench/e1/run.py
// divides the sweeps' throughput by it. Set-up samples take microseconds,
// and over microseconds the host's speed swings far more than over
// seconds, so each is paired with one unit timed right after it
// (time_unit()) instead.
#pragma once

#include <array>
#include <cstdint>

namespace e1 {

class HostProbe {
 public:
  /// Probe units per second on the reference host (a shared 4-vCPU x86-64
  /// VM, GCC 12.2.0): the median rate over forty benchmark runs.
  static constexpr double kReferenceUnitsPerSecond = 130000.0;

  /// Runs whole units of reference work until `seconds` have passed.
  void run_for(double seconds);

  /// Runs one unit and returns its seconds: the host's speed at this
  /// moment, for a measurement taken right before. units() and
  /// seconds() do not count it.
  [[nodiscard]] double time_unit();

  /// Units run and seconds spent in run_for(), summed over every call.
  [[nodiscard]] std::int64_t units() const noexcept { return units_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  /// One unit of reference work, the same on every call.
  std::uint64_t unit();

  std::array<std::uint32_t, 64> buffer_{};
  std::int64_t units_ = 0;
  double seconds_ = 0.0;
  std::uint64_t sink_ = 0;  ///< folds every unit's result, so none is elided
};

}  // namespace e1
