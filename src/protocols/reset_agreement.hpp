// The paper's §3 algorithm: randomized agreement tolerating a strongly
// adaptive (resetting) adversary for t < n/6 (Theorem 4).
//
// Per round r, every processor p broadcasts (r, x_p), waits for T1 messages
// with matching round, then:
//   * ≥ T2 of the T1 agree on v  →  write v to the output bit (write-once)
//   * ≥ T3 of the T1 agree on v  →  x_p := v
//   * otherwise                  →  x_p := fresh uniform bit
// and advances to round r + 1. That rule is protocols::step3
// (thresholds.hpp), shared with ForgetfulProcess and the abstract window.
//
// Which votes step 3 reads: this class applies it to the FIRST T1 votes of
// a round, which is why its constructor asks only 2·T3 > T1. That reading
// breaks agreement under the `random` window adversary (127 violations in
// 24 000 canonical-threshold trials; ROADMAP, "Fix §3 step 3"). Counting
// every vote delivered in the window instead reads up to n votes, so that
// reading needs 2·T3 > n, not 2·T3 > T1.
//
// Reset handling (the paper's "handling resets" paragraph): a reset is
// detectable; the processor then refrains from sending, waits until it has
// seen T1 messages (r_q, x_q) sharing a common round r, adopts r_p := r, and
// re-enters at step 3 using those T1 messages.
#pragma once

#include "protocols/round_tally.hpp"
#include "protocols/thresholds.hpp"
#include "sim/process.hpp"

namespace aa::protocols {

/// Message kind used by ResetProcess (and ForgetfulProcess): a round vote.
inline constexpr std::int32_t kVoteKind = 1;

/// Build the (r, x) vote message.
[[nodiscard]] sim::Message make_vote(int round, int value);

class ResetProcess final : public sim::Process {
 public:
  ResetProcess(int id, int n, int input, Thresholds th);

  void on_start(sim::Outbox& out) override;
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override;
  /// Batched delivery: same per-envelope computation, devirtualized into a
  /// tight loop over the run (one virtual call per window instead of per
  /// message).
  void on_receive_batch(std::span<const sim::Envelope* const> envs, Rng& rng,
                        sim::Outbox& out) override;
  void on_reset() override;

  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override {
    return rejoining_ ? sim::kBot : round_;
  }
  [[nodiscard]] int estimate() const override {
    return rejoining_ ? sim::kBot : x_;
  }
  [[nodiscard]] const char* protocol_name() const override {
    return "reset-agreement";
  }

  [[nodiscard]] bool rejoining() const noexcept { return rejoining_; }
  [[nodiscard]] const Thresholds& thresholds() const noexcept { return th_; }
  /// The held round tallies (introspection for tests).
  [[nodiscard]] const RoundTally<VoteTally>& votes() const noexcept {
    return votes_;
  }

 private:
  /// The whole receiving-step computation (non-virtual: shared by
  /// on_receive and the on_receive_batch loop).
  void handle(const sim::Envelope& env, Rng& rng, sim::Outbox& out);
  /// Step 3 + step 4 on `rt`, the tally of round `round_`, which holds T1
  /// votes.
  void step3_and_advance(const VoteTally& rt, Rng& rng, sim::Outbox& out);
  /// Step 3 on `reached` (round `round_`'s tally, just at T1), then on as
  /// many following rounds as already hold T1 votes (votes for future
  /// rounds can arrive before we get there).
  void advance_from(const VoteTally& reached, Rng& rng, sim::Outbox& out);

  int id_;
  int n_;
  Thresholds th_;
  int input_;
  int output_ = sim::kBot;
  int round_ = 1;
  int x_;
  bool rejoining_ = false;
  /// Tallies of the rounds at or above round_ (every round while
  /// rejoining). Only the first T1 votes of a round are ever consulted (the
  /// paper's "wait until T1 messages"), so a round costs O(1) memory.
  /// Votes are counted per arrival, not per distinct sender.
  RoundTally<VoteTally> votes_;
};

}  // namespace aa::protocols
