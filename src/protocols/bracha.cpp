#include "protocols/bracha.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aa::protocols {

std::int32_t pack_bracha_aux(int originator, int step, bool decide_flag) {
  AA_REQUIRE(originator >= 0 && originator < (1 << 20),
             "pack_bracha_aux: originator out of range");
  AA_REQUIRE(step >= 1 && step <= 3, "pack_bracha_aux: step out of range");
  return static_cast<std::int32_t>((originator << 3) | (step << 1) |
                                   (decide_flag ? 1 : 0));
}

BrachaAux unpack_bracha_aux(std::int32_t aux) {
  BrachaAux a;
  a.decide_flag = (aux & 1) != 0;
  a.step = (aux >> 1) & 0x3;
  a.originator = aux >> 3;
  return a;
}

BrachaProcess::BrachaProcess(int id, int n, int t, int input)
    : id_(id), n_(n), t_(t), input_(input), x_(input) {
  AA_REQUIRE(id >= 0 && id < n, "BrachaProcess: bad id");
  AA_REQUIRE(input == 0 || input == 1, "BrachaProcess: input must be a bit");
  AA_REQUIRE(t >= 0 && 3 * t < n, "BrachaProcess: requires t < n/3");
}

BrachaProcess::InstanceKey BrachaProcess::key_of(int originator, int round,
                                                 int step) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(round)) << 24) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(originator))
          << 4) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(step));
}

void BrachaProcess::on_start(sim::Outbox& out) {
  rbc_broadcast(/*step=*/1, x_, /*decide_flag=*/false, out);
}

void BrachaProcess::rbc_broadcast(int step, int value, bool decide_flag,
                                  sim::Outbox& out) {
  sim::Message m;
  m.round = round_;
  m.kind = kRbcInitKind;
  m.value = value;
  m.aux = pack_bracha_aux(id_, step, decide_flag);
  out.broadcast(m);
}

void BrachaProcess::on_receive(const sim::Envelope& env, Rng& rng,
                               sim::Outbox& out) {
  const sim::Message& m = env.payload;
  if (m.kind != kRbcInitKind && m.kind != kRbcEchoKind &&
      m.kind != kRbcReadyKind)
    return;
  handle_rbc(m, env.sender, out);
  // handle_rbc records RBC deliveries in step_votes_. We re-run the
  // agreement advance after every RBC event because a single echo/ready can
  // complete several pending deliveries in cascade.
  try_advance(rng, out);
}

std::size_t BrachaProcess::record_of(InstanceKey k) {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), k,
      [](const RbcRecord& r, InstanceKey key) { return r.key < key; });
  const auto i = static_cast<std::size_t>(it - records_.begin());
  if (it == records_.end() || it->key != k) {
    records_.insert(it, RbcRecord{k});
    const auto n = static_cast<std::size_t>(n_);
    seen_.insert(seen_.begin() + static_cast<std::ptrdiff_t>(i * n), n, 0);
  }
  return i;
}

void BrachaProcess::handle_rbc(const sim::Message& m, int sender,
                               sim::Outbox& out) {
  const BrachaAux aux = unpack_bracha_aux(m.aux);
  if (aux.step < 1 || aux.step > 3) return;
  if (m.value != 0 && m.value != 1) return;
  // No such processor: its instance could never be relayed (the READY's
  // aux would not pack), and a negative originator aliases the round bits.
  if (aux.originator < 0 || aux.originator >= n_) return;
  // Only the originator's own INIT counts.
  if (m.kind == kRbcInitKind && sender != aux.originator) return;
  AA_CHECK(sender >= 0 && sender < n_, "BrachaProcess: sender out of range");
  const std::size_t i = record_of(key_of(aux.originator, m.round, aux.step));
  RbcRecord& rec = records_[i];
  const int payload = 2 * m.value + (aux.decide_flag ? 1 : 0);

  if (m.kind == kRbcInitKind) {
    // The FIRST INIT wins — a later conflicting INIT from an equivocator is
    // ignored here, and its per-payload echo counts can never both reach
    // quorum.
    if (rec.echoed) return;
    rec.echoed = true;
    sim::Message r = m;
    r.kind = kRbcEchoKind;
    out.broadcast(r);
  } else {
    // A sender counts once per (kind, payload).
    const bool echo = m.kind == kRbcEchoKind;
    const auto n = static_cast<std::size_t>(n_);
    std::uint8_t& seen = seen_[i * n + static_cast<std::size_t>(sender)];
    const auto bit =
        static_cast<std::uint8_t>(1u << (echo ? payload : payload + 4));
    if ((seen & bit) != 0) return;
    seen |= bit;
    ++(echo ? rec.echoes : rec.readies)[payload];
  }
  maybe_progress_instance(rec, aux.originator, m.round, aux.step, out);
}

void BrachaProcess::maybe_progress_instance(RbcRecord& rec, int originator,
                                            int round, int step,
                                            sim::Outbox& out) {
  auto send_ready = [&](int payload) {
    rec.sent_ready = true;
    sim::Message r;
    r.round = round;
    r.kind = kRbcReadyKind;
    r.value = payload / 2;
    r.aux = pack_bracha_aux(originator, step, payload % 2 != 0);
    out.broadcast(r);
  };
  const int echo_threshold = (n_ + t_) / 2 + 1;  // strictly more than (n+t)/2
  // Quorums are evaluated per payload: two conflicting payloads cannot both
  // assemble > (n+t)/2 echoes from n honest-counting receivers.
  for (int p = 0; p < 4 && !rec.sent_ready; ++p) {
    if (rec.echoes[p] >= echo_threshold) send_ready(p);
  }
  for (int p = 0; p < 4; ++p) {
    // Ready amplification for this payload.
    if (!rec.sent_ready && rec.readies[p] >= t_ + 1) send_ready(p);
    if (!rec.delivered && rec.readies[p] >= 2 * t_ + 1) {
      rec.delivered = true;
      StepTally& st = step_votes_.at(round).step[step - 1];
      const int v = p / 2;
      if (p % 2 != 0 && st.values.arrivals < n_ - t_) ++st.flagged[v];
      st.values.add(v, n_ - t_);
    }
  }
}

void BrachaProcess::try_advance(Rng& rng, sim::Outbox& out) {
  // Each finish_step moves (round_, step_) on, so a step fires once.
  while (true) {
    const RoundSteps* rs = step_votes_.find(round_);
    if (rs == nullptr || rs->step[step_ - 1].values.arrivals < n_ - t_)
      return;
    finish_step(rng, out);
  }
}

void BrachaProcess::finish_step(Rng& rng, sim::Outbox& out) {
  // The first n − t deliveries of this step, by value and flag.
  const StepTally got = step_votes_.find(round_)->step[step_ - 1];
  const std::int32_t* count = got.values.count;
  const std::int32_t* flagged = got.flagged;

  switch (step_) {
    case 1:
      // x := majority of the n−t delivered values (ties keep x).
      if (count[0] > count[1]) x_ = 0;
      else if (count[1] > count[0]) x_ = 1;
      x_flag_ = false;
      step_ = 2;
      break;
    case 2:
      // Attach the decide flag if some value has more than n/2 support.
      x_flag_ = false;
      for (int v = 0; v <= 1; ++v) {
        if (2 * count[v] > n_) {
          x_ = v;
          x_flag_ = true;
        }
      }
      step_ = 3;
      break;
    case 3: {
      int winner = sim::kBot;
      // flagged[0] and flagged[1] cannot both be ≥ t+1: flags require
      // > n/2 support in step 2, and two conflicting majorities cannot
      // both exist among honest-content messages.
      for (int v = 0; v <= 1; ++v) {
        if (flagged[v] >= t_ + 1) winner = v;
      }
      if (winner != sim::kBot && flagged[winner] >= 2 * t_ + 1) {
        if (output_ == sim::kBot) output_ = winner;
        x_ = winner;
      } else if (winner != sim::kBot) {
        x_ = winner;
      } else {
        x_ = rng.next_bool() ? 1 : 0;
      }
      x_flag_ = false;
      ++round_;
      step_ = 1;
      // Prune bookkeeping from completed rounds.
      step_votes_.drop_below(round_);
      break;
    }
    default:
      AA_CHECK(false, "invalid Bracha step");
  }
  rbc_broadcast(step_, x_, x_flag_, out);
}

void BrachaProcess::on_reset() {
  round_ = 1;
  step_ = 1;
  x_ = input_;
  x_flag_ = false;
  records_.clear();
  seen_.clear();
  step_votes_.clear();
}

}  // namespace aa::protocols
