// Ben-Or's randomized agreement (PODC 1983) for the crash model, in the
// t < n/2 form whose correctness was proven by Aguilera & Toueg (Distributed
// Computing 2012) — reference [1] of the paper.
//
// Round r has two phases:
//   Phase 1 (reports):   broadcast (R, r, x). Wait for n − t reports of
//                        round r. If more than n/2 report the same v,
//                        broadcast proposal (P, r, v); else (P, r, ?).
//   Phase 2 (proposals): wait for n − t proposals of round r. If ≥ t + 1
//                        propose the same v ≠ ? → DECIDE v. Else if ≥ 1
//                        proposes v ≠ ? → x := v. Else x := fresh coin.
//                        Advance to round r + 1.
//
// This is both *forgetful* and *fully communicative* in the paper's §5
// sense — the properties Theorem 17's lower bound keys on.
#pragma once

#include "protocols/round_tally.hpp"
#include "sim/process.hpp"

namespace aa::protocols {

inline constexpr std::int32_t kReportKind = 2;
inline constexpr std::int32_t kProposalKind = 3;

[[nodiscard]] sim::Message make_report(int round, int value);
[[nodiscard]] sim::Message make_proposal(int round, int value_or_bot);

class BenOrProcess final : public sim::Process {
 public:
  BenOrProcess(int id, int n, int t, int input);

  void on_start(sim::Outbox& out) override;
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override;
  /// Batched delivery: same per-envelope computation, devirtualized into a
  /// tight loop over the run.
  void on_receive_batch(std::span<const sim::Envelope* const> envs, Rng& rng,
                        sim::Outbox& out) override;
  /// Ben-Or predates resetting failures; a reset erases state and the
  /// processor restarts from round 1 with its input. The protocol makes no
  /// recovery promises under resets (used to demonstrate non-tolerance in
  /// the T2 matrix).
  void on_reset() override;

  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return x_; }
  [[nodiscard]] const char* protocol_name() const override { return "ben-or"; }

  /// One phase's tally: only the first n − t arrivals are ever read, so
  /// they are counted by value (⊥ proposals count for neither bit).
  struct PhaseTally {
    VoteTally votes;
    bool acted = false;  ///< fire exactly once, at the (n−t)-th arrival
  };
  /// Both phases of one round: phase[0] reports, phase[1] proposals.
  struct RoundPhases {
    PhaseTally phase[2];
  };
  /// The held round tallies (introspection for tests).
  [[nodiscard]] const RoundTally<RoundPhases>& votes() const noexcept {
    return votes_;
  }

 private:
  /// Non-virtual receiving-step computation shared by on_receive and the
  /// on_receive_batch loop.
  void handle(const sim::Envelope& env, Rng& rng, sim::Outbox& out);
  /// Finish the phase whose tally `reached` just got n − t votes, then as
  /// many following phases as already hold n − t.
  void advance_from(PhaseTally& reached, Rng& rng, sim::Outbox& out);
  void finish_phase1(const VoteTally& reports, sim::Outbox& out);
  void finish_phase2(const VoteTally& proposals, Rng& rng, sim::Outbox& out);

  int id_;
  int n_;
  int t_;
  int input_;
  int output_ = sim::kBot;
  int round_ = 1;
  int x_;
  int phase_ = 1;  ///< 1 = awaiting reports, 2 = awaiting proposals
  /// Tallies of the rounds at or above round_; votes for earlier rounds
  /// are never read, so they are ignored.
  RoundTally<RoundPhases> votes_;
};

}  // namespace aa::protocols
