#include "protocols/reset_agreement.hpp"

#include "util/check.hpp"

namespace aa::protocols {

sim::Message make_vote(int round, int value) {
  sim::Message m;
  m.round = round;
  m.kind = kVoteKind;
  m.value = value;
  return m;
}

ResetProcess::ResetProcess(int id, int n, int input, Thresholds th)
    : id_(id), n_(n), th_(th), input_(input), x_(input) {
  AA_REQUIRE(id >= 0 && id < n, "ResetProcess: bad id");
  AA_REQUIRE(input == 0 || input == 1, "ResetProcess: input must be a bit");
  require_step3_thresholds(th, th.t1, "ResetProcess");
}

void ResetProcess::on_start(sim::Outbox& out) {
  out.broadcast(make_vote(round_, x_));
}

void ResetProcess::on_receive(const sim::Envelope& env, Rng& rng,
                              sim::Outbox& out) {
  handle(env, rng, out);
}

void ResetProcess::on_receive_batch(std::span<const sim::Envelope* const> envs,
                                    Rng& rng, sim::Outbox& out) {
  for (const sim::Envelope* env : envs) handle(*env, rng, out);
}

void ResetProcess::handle(const sim::Envelope& env, Rng& rng,
                          sim::Outbox& out) {
  const sim::Message& m = env.payload;
  if (m.kind != kVoteKind) return;
  if (m.value != 0 && m.value != 1) return;
  // A round below round_ is never read again: its vote changes nothing.
  if (!rejoining_ && m.round < round_) return;
  VoteTally& rt = votes_.at(m.round);
  if (rt.add(m.value, th_.t1) < th_.t1) return;
  if (rejoining_) {
    // T1 votes share round m.round: adopt it and re-enter step 3.
    round_ = m.round;
    rejoining_ = false;
  } else if (m.round != round_) {
    // Between votes round_'s tally stays below T1, so only the vote that
    // brings it to T1 can advance the round.
    return;
  }
  advance_from(rt, rng, out);
}

void ResetProcess::advance_from(const VoteTally& reached, Rng& rng,
                                sim::Outbox& out) {
  step3_and_advance(reached, rng, out);
  for (const VoteTally* rt = votes_.find(round_);
       rt != nullptr && rt->arrivals >= th_.t1; rt = votes_.find(round_)) {
    step3_and_advance(*rt, rng, out);
  }
}

void ResetProcess::step3_and_advance(const VoteTally& rt, Rng& rng,
                                     sim::Outbox& out) {
  AA_CHECK(rt.arrivals >= th_.t1, "step 3 requires T1 recorded votes");
  // Step 3.
  const Step3 s = step3(th_, rt.count[0], rt.count[1]);
  if (output_ == sim::kBot) output_ = s.decide;
  x_ = s.estimate == kFlipCoin ? (rng.next_bool() ? 1 : 0) : s.estimate;

  // Step 4. The prune invalidates `rt`.
  ++round_;
  votes_.drop_below(round_);
  out.broadcast(make_vote(round_, x_));
}

void ResetProcess::on_reset() {
  // Everything except input, output, identity (and the engine-side reset
  // counter) is erased.
  round_ = 1;  // placeholder; masked by rejoining_ until a round is adopted
  x_ = sim::kBot;
  votes_.clear();
  rejoining_ = true;
  // A freshly reset processor refrains from sending until it resumes normal
  // operation — it stages nothing here, and the engine clears any staged
  // messages at the reset step.
}

}  // namespace aa::protocols
