// ByzantineProcess: a corruption wrapper turning any protocol process into
// a value-lying Byzantine participant.
//
// §2 of the paper observes that the strongly adaptive adversary is
// INCOMPARABLE to the classical Byzantine adversary: it can erase memory
// but "lacks the power to have corrupted processors lie about their local
// random bits". This wrapper supplies the missing power, so experiment T4
// can measure the other side of that incomparability: the §3 reset-tolerant
// algorithm (built for erasure) breaks under lying, while Bracha (built for
// lying, t < n/3) shrugs it off.
//
// The wrapper intercepts every outgoing message of the inner process and
// corrupts its value field per strategy:
//   Equivocate — low-id receivers get value 0, high-id receivers get 1
//                (the classic split-the-network attack);
//   FlipAll    — every vote value inverted;
//   Silent     — all outgoing messages dropped (Byzantine crash simulation);
//   RandomLie  — fresh random value per message (from a private stream).
//
// Incoming messages and the inner state machine run unmodified, so the
// wrapped processor still *participates*; its output bit is excluded from
// honest-agreement accounting by the harness.
#pragma once

#include <memory>
#include <vector>

#include "protocols/factory.hpp"
#include "sim/process.hpp"
#include "util/rng.hpp"

namespace aa::protocols {

enum class ByzantineStrategy { Equivocate, FlipAll, Silent, RandomLie };

[[nodiscard]] const char* byzantine_strategy_name(ByzantineStrategy s);

class ByzantineProcess final : public sim::Process {
 public:
  /// Wraps `inner`; `lie_seed` feeds the RandomLie stream.
  ByzantineProcess(std::unique_ptr<sim::Process> inner,
                   ByzantineStrategy strategy, std::uint64_t lie_seed);

  void on_start(sim::Outbox& out) override;
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override;
  /// Forward the whole run to the inner process's (possibly devirtualized)
  /// batch path, then corrupt the staged responses once. Equivalent to
  /// per-envelope interception: corruption is per staged message and the
  /// staged order is the concatenation of the per-envelope responses.
  void on_receive_batch(std::span<const sim::Envelope* const> envs, Rng& rng,
                        sim::Outbox& out) override;
  void on_reset() override;

  [[nodiscard]] int input() const override { return inner_->input(); }
  [[nodiscard]] int output() const override { return inner_->output(); }
  [[nodiscard]] int round() const override { return inner_->round(); }
  [[nodiscard]] int estimate() const override { return inner_->estimate(); }
  [[nodiscard]] const char* protocol_name() const override {
    return "byzantine-wrapper";
  }

  [[nodiscard]] ByzantineStrategy strategy() const noexcept {
    return strategy_;
  }
  [[nodiscard]] const sim::Process& inner() const noexcept { return *inner_; }

 private:
  /// The staging outbox for the inner process, sized for `n` receivers and
  /// checked empty: corrupt_and_forward drains it after every call.
  sim::Outbox& staging(int n);
  /// Corrupt the staged run into `out`, then clear it.
  void corrupt_and_forward(sim::Outbox& out);

  std::unique_ptr<sim::Process> inner_;
  ByzantineStrategy strategy_;
  Rng lie_rng_;
  sim::Outbox staged_{0};  ///< reused across calls; empty between them
};

/// Build a process vector where the FIRST `byz_count` processors are
/// Byzantine wrappers around `kind` processes and the rest are honest.
/// `th` is forwarded to make_processes (honoured by Reset/Forgetful,
/// ignored by Ben-Or/Bracha).
[[nodiscard]] std::vector<std::unique_ptr<sim::Process>>
make_byzantine_processes(ProtocolKind kind, int t,
                         const std::vector<int>& inputs, int byz_count,
                         ByzantineStrategy strategy, std::uint64_t lie_seed,
                         std::optional<Thresholds> th = std::nullopt);

}  // namespace aa::protocols
