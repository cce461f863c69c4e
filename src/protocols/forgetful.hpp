// The §5 algorithm class: forgetful, fully communicative agreement for the
// crash model — the class Theorem 17's exponential lower bound covers.
//
//   * Forgetful (Definition 15): each message depends only on the input bit
//     and the messages received / randomness drawn since the previous
//     sending event. Our processor keeps only (round, x, input, output) and
//     the current round's arrivals; everything older is discarded.
//   * Fully communicative (Definition 16): whenever the processor has the
//     most recent messages from n − t processors, it sends to all n.
//
// The voting rule is the §3 step 3 (protocols::step3) with T1 = n − t:
//   ≥ T2 matching votes → decide;  ≥ T3 → adopt;  else coin.
// Defaults mirror the §3 canonical setting where possible: for t < n/6,
// T3 = n − 3t and T2 = n − 2t (so a decision propagates: any two first-T1
// vote sets overlap in ≥ T1 − t senders, and T2 − (n − T1) ≥ T3 makes every
// peer adopt the decided value). For larger t, fall back to T3 = ⌊n/2⌋ + 1,
// T2 = T3 + t.
#pragma once

#include "protocols/round_tally.hpp"
#include "protocols/thresholds.hpp"
#include "sim/process.hpp"

namespace aa::protocols {

/// Default §5 thresholds for (n, t): T1 = n − t always; for t < n/6,
/// T2 = n − 2t and T3 = n − 3t (canonical §3 shape); otherwise
/// T3 = ⌊n/2⌋ + 1 and T2 = T3 + t.
[[nodiscard]] Thresholds forgetful_thresholds(int n, int t);

class ForgetfulProcess final : public sim::Process {
 public:
  /// `memory_k` bounds how far AHEAD of the current round the processor
  /// will tally votes: arrivals for rounds ≥ round + memory_k are
  /// discarded on receipt (the processor has no cell to put them in), so
  /// the tally holds at most memory_k rounds at any time. 0 means
  /// unbounded look-ahead (the original behaviour). This is the
  /// bounded-memory knob the campaign engine's memory-K sweep exercises:
  /// small K trades liveness under adversarial skew for a hard state
  /// bound, K ≥ the adversary's round spread changes nothing.
  ForgetfulProcess(int id, int n, int input, Thresholds th, int memory_k = 0);

  void on_start(sim::Outbox& out) override;
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override;
  /// Batched delivery: same per-envelope computation, devirtualized into a
  /// tight loop over the run.
  void on_receive_batch(std::span<const sim::Envelope* const> envs, Rng& rng,
                        sim::Outbox& out) override;
  /// The §5 model has no resets; if one happens anyway, restart at round 1.
  void on_reset() override;

  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return x_; }
  [[nodiscard]] const char* protocol_name() const override {
    return "forgetful";
  }
  /// The held round tallies (introspection for tests).
  [[nodiscard]] const RoundTally<VoteTally>& votes() const noexcept {
    return votes_;
  }

 private:
  /// Non-virtual receiving-step computation shared by on_receive and the
  /// on_receive_batch loop.
  void handle(const sim::Envelope& env, Rng& rng, sim::Outbox& out);
  /// The voting rule on `rt`, round `round_`'s tally at T1, then the move
  /// to the next round.
  void step(const VoteTally& rt, Rng& rng, sim::Outbox& out);
  /// step() on `reached`, then on as many following rounds as already hold
  /// T1 votes.
  void advance_from(const VoteTally& reached, Rng& rng, sim::Outbox& out);

  int id_;
  int n_;
  Thresholds th_;
  int memory_k_;  ///< tallied-round horizon; 0 = unbounded
  int input_;
  int output_ = sim::kBot;
  int round_ = 1;
  int x_;
  /// Tallies for rounds ≥ round_ only (forgetfulness: prior rounds are
  /// erased as soon as the round advances, and their votes are ignored).
  /// Only the first T1 arrivals of a round are counted by value.
  RoundTally<VoteTally> votes_;
};

}  // namespace aa::protocols
