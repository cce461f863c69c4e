#include "protocols/ben_or.hpp"

#include "util/check.hpp"

namespace aa::protocols {

sim::Message make_report(int round, int value) {
  sim::Message m;
  m.round = round;
  m.kind = kReportKind;
  m.value = value;
  return m;
}

sim::Message make_proposal(int round, int value_or_bot) {
  sim::Message m;
  m.round = round;
  m.kind = kProposalKind;
  m.value = value_or_bot;
  return m;
}

BenOrProcess::BenOrProcess(int id, int n, int t, int input)
    : id_(id), n_(n), t_(t), input_(input), x_(input) {
  AA_REQUIRE(id >= 0 && id < n, "BenOrProcess: bad id");
  AA_REQUIRE(input == 0 || input == 1, "BenOrProcess: input must be a bit");
  AA_REQUIRE(t >= 0 && 2 * t < n, "BenOrProcess: requires t < n/2");
}

void BenOrProcess::on_start(sim::Outbox& out) {
  out.broadcast(make_report(round_, x_));
}

void BenOrProcess::on_receive(const sim::Envelope& env, Rng& rng,
                              sim::Outbox& out) {
  handle(env, rng, out);
}

void BenOrProcess::on_receive_batch(std::span<const sim::Envelope* const> envs,
                                    Rng& rng, sim::Outbox& out) {
  for (const sim::Envelope* env : envs) handle(*env, rng, out);
}

void BenOrProcess::handle(const sim::Envelope& env, Rng& rng,
                          sim::Outbox& out) {
  const sim::Message& m = env.payload;
  int phase = 0;
  if (m.kind == kReportKind) phase = 1;
  else if (m.kind == kProposalKind) phase = 2;
  else return;
  if (phase == 1 && m.value != 0 && m.value != 1) return;
  if (phase == 2 && m.value != 0 && m.value != 1 && m.value != sim::kBot)
    return;
  if (m.round < round_) return;  // an earlier round is never read again
  PhaseTally& pt = votes_.at(m.round).phase[phase - 1];
  // Between votes the tally of (round_, phase_) stays below n − t, so only
  // the vote that brings it to n − t can finish the phase.
  if (pt.votes.add(m.value, n_ - t_) < n_ - t_ || m.round != round_ ||
      phase != phase_)
    return;
  advance_from(pt, rng, out);
}

void BenOrProcess::advance_from(PhaseTally& reached, Rng& rng,
                                sim::Outbox& out) {
  // Loop: messages for later (round, phase) pairs may already be tallied.
  PhaseTally* pt = &reached;
  do {
    pt->acted = true;
    if (phase_ == 1) finish_phase1(pt->votes, out);
    else finish_phase2(pt->votes, rng, out);
    RoundPhases* next = votes_.find(round_);
    pt = next != nullptr ? &next->phase[phase_ - 1] : nullptr;
  } while (pt != nullptr && !pt->acted && pt->votes.arrivals >= n_ - t_);
}

void BenOrProcess::finish_phase1(const VoteTally& reports, sim::Outbox& out) {
  int proposal = sim::kBot;
  // "More than n/2" — over ALL n processors, so two processors can never
  // back conflicting proposals in the same round.
  for (int v = 0; v <= 1; ++v) {
    if (2 * reports.count[v] > n_) proposal = v;
  }
  phase_ = 2;
  out.broadcast(make_proposal(round_, proposal));
}

void BenOrProcess::finish_phase2(const VoteTally& proposals, Rng& rng,
                                 sim::Outbox& out) {
  const std::int32_t* count = proposals.count;
  // At most one value can be proposed at all in a round (see finish_phase1),
  // so these branches cannot conflict.
  for (int v = 0; v <= 1; ++v) {
    if (count[v] >= t_ + 1 && output_ == sim::kBot) output_ = v;
  }
  if (count[0] >= 1) x_ = 0;
  else if (count[1] >= 1) x_ = 1;
  else x_ = rng.next_bool() ? 1 : 0;

  ++round_;
  phase_ = 1;
  votes_.drop_below(round_);  // invalidates `proposals`
  out.broadcast(make_report(round_, x_));
}

void BenOrProcess::on_reset() {
  round_ = 1;
  phase_ = 1;
  x_ = input_;
  votes_.clear();
  // Note: no rejoin logic — Ben-Or is not reset-tolerant; it restarts at
  // round 1 and its round-1 reports will be ignored by peers already in
  // later rounds.
}

}  // namespace aa::protocols
