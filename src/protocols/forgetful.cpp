#include "protocols/forgetful.hpp"

#include "protocols/reset_agreement.hpp"  // make_vote / kVoteKind
#include "util/check.hpp"

namespace aa::protocols {

Thresholds forgetful_thresholds(int n, int t) {
  AA_REQUIRE(n > 0 && t >= 0, "forgetful_thresholds: bad arguments");
  Thresholds th;
  th.t1 = n - t;
  if (t > 0 && 6 * t < n) {
    th.t2 = n - 2 * t;
    th.t3 = n - 3 * t;
  } else {
    th.t3 = n / 2 + 1;
    th.t2 = th.t3 + t;
  }
  return th;
}

ForgetfulProcess::ForgetfulProcess(int id, int n, int input, Thresholds th,
                                   int memory_k)
    : id_(id), n_(n), th_(th), memory_k_(memory_k), input_(input), x_(input) {
  AA_REQUIRE(id >= 0 && id < n, "ForgetfulProcess: bad id");
  AA_REQUIRE(input == 0 || input == 1, "ForgetfulProcess: input must be a bit");
  AA_REQUIRE(memory_k >= 0, "ForgetfulProcess: memory_k must be >= 0");
  require_step3_thresholds(th, n, "ForgetfulProcess");
}

void ForgetfulProcess::on_start(sim::Outbox& out) {
  out.broadcast(make_vote(round_, x_));
}

void ForgetfulProcess::on_receive(const sim::Envelope& env, Rng& rng,
                                  sim::Outbox& out) {
  handle(env, rng, out);
}

void ForgetfulProcess::on_receive_batch(
    std::span<const sim::Envelope* const> envs, Rng& rng, sim::Outbox& out) {
  for (const sim::Envelope* env : envs) handle(*env, rng, out);
}

void ForgetfulProcess::handle(const sim::Envelope& env, Rng& rng,
                              sim::Outbox& out) {
  const sim::Message& m = env.payload;
  if (m.kind != kVoteKind) return;
  if (m.value != 0 && m.value != 1) return;
  if (m.round < round_) return;  // forgetful: stale rounds are invisible
  // Bounded memory: no tally cell exists for rounds past the horizon, so
  // such a vote is dropped exactly as a stale one is. The difference
  // cannot overflow once m.round >= round_ >= 1.
  if (memory_k_ > 0 && m.round - round_ >= memory_k_) return;
  VoteTally& rt = votes_.at(m.round);
  // Between votes round_'s tally stays below T1, so only the vote that
  // brings it to T1 can advance the round.
  if (rt.add(m.value, th_.t1) < th_.t1 || m.round != round_) return;
  advance_from(rt, rng, out);
}

void ForgetfulProcess::advance_from(const VoteTally& reached, Rng& rng,
                                    sim::Outbox& out) {
  step(reached, rng, out);
  for (const VoteTally* rt = votes_.find(round_);
       rt != nullptr && rt->arrivals >= th_.t1; rt = votes_.find(round_)) {
    step(*rt, rng, out);
  }
}

void ForgetfulProcess::step(const VoteTally& rt, Rng& rng, sim::Outbox& out) {
  AA_CHECK(rt.arrivals >= th_.t1, "a step requires T1 recorded votes");
  const Step3 s = step3(th_, rt.count[0], rt.count[1]);
  if (output_ == sim::kBot) output_ = s.decide;
  x_ = s.estimate == kFlipCoin ? (rng.next_bool() ? 1 : 0) : s.estimate;
  ++round_;
  // Full communication: having heard n − t, speak to all n.
  out.broadcast(make_vote(round_, x_));
  // Forgetfulness: drop every record from rounds before the new one (this
  // invalidates `rt`).
  votes_.drop_below(round_);
}

void ForgetfulProcess::on_reset() {
  round_ = 1;
  x_ = input_;
  votes_.clear();
}

}  // namespace aa::protocols
