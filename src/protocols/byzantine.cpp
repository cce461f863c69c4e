#include "protocols/byzantine.hpp"

#include "util/check.hpp"

namespace aa::protocols {

const char* byzantine_strategy_name(ByzantineStrategy s) {
  switch (s) {
    case ByzantineStrategy::Equivocate: return "equivocate";
    case ByzantineStrategy::FlipAll: return "flip-all";
    case ByzantineStrategy::Silent: return "silent";
    case ByzantineStrategy::RandomLie: return "random-lie";
  }
  return "?";
}

ByzantineProcess::ByzantineProcess(std::unique_ptr<sim::Process> inner,
                                   ByzantineStrategy strategy,
                                   std::uint64_t lie_seed)
    : inner_(std::move(inner)), strategy_(strategy), lie_rng_(lie_seed) {
  AA_REQUIRE(inner_ != nullptr, "ByzantineProcess: null inner process");
}

sim::Outbox& ByzantineProcess::staging(int n) {
  if (staged_.n() != n) staged_ = sim::Outbox(n);
  AA_CHECK(staged_.empty(), "ByzantineProcess: staging outbox not drained");
  return staged_;
}

void ByzantineProcess::corrupt_and_forward(sim::Outbox& out) {
  if (strategy_ == ByzantineStrategy::Silent) {
    staged_.clear();
    return;
  }
  const int n = staged_.n();
  // Forward copy by copy in receiver order, the order the copies' ids
  // take, so per-copy corruption (and RandomLie's draws) follow the
  // published messages.
  staged_.expand();
  out.reserve(staged_.items().size());
  for (const sim::Outbox::Item& item : staged_.items()) {
    sim::Message m = item.msg;
    // Only bit-valued fields are corrupted; ⊥/'?' markers pass through
    // (changing a non-message to a message is not in this wrapper's power,
    // mirroring the paper's remark that corrupting m → ∅ is permissible
    // but forging structure is a different adversary).
    if (m.value == 0 || m.value == 1) {
      switch (strategy_) {
        case ByzantineStrategy::Equivocate:
          m.value = item.to < n / 2 ? 0 : 1;
          break;
        case ByzantineStrategy::FlipAll:
          m.value = 1 - m.value;
          break;
        case ByzantineStrategy::RandomLie:
          m.value = lie_rng_.next_bool() ? 1 : 0;
          break;
        case ByzantineStrategy::Silent:
          break;  // unreachable
      }
    }
    out.send(item.to, m);
  }
  staged_.clear();
}

void ByzantineProcess::on_start(sim::Outbox& out) {
  inner_->on_start(staging(out.n()));
  corrupt_and_forward(out);
}

void ByzantineProcess::on_receive(const sim::Envelope& env, Rng& rng,
                                  sim::Outbox& out) {
  inner_->on_receive(env, rng, staging(out.n()));
  corrupt_and_forward(out);
}

void ByzantineProcess::on_receive_batch(
    std::span<const sim::Envelope* const> envs, Rng& rng, sim::Outbox& out) {
  inner_->on_receive_batch(envs, rng, staging(out.n()));
  corrupt_and_forward(out);
}

void ByzantineProcess::on_reset() { inner_->on_reset(); }

std::vector<std::unique_ptr<sim::Process>> make_byzantine_processes(
    ProtocolKind kind, int t, const std::vector<int>& inputs, int byz_count,
    ByzantineStrategy strategy, std::uint64_t lie_seed,
    std::optional<Thresholds> th) {
  const int n = static_cast<int>(inputs.size());
  AA_REQUIRE(byz_count >= 0 && byz_count <= n,
             "make_byzantine_processes: bad byz_count");
  std::vector<std::unique_ptr<sim::Process>> procs =
      make_processes(kind, t, inputs, th);
  for (int i = 0; i < byz_count; ++i) {
    procs[static_cast<std::size_t>(i)] = std::make_unique<ByzantineProcess>(
        std::move(procs[static_cast<std::size_t>(i)]), strategy,
        lie_seed + static_cast<std::uint64_t>(i) * 7919);
  }
  return procs;
}

}  // namespace aa::protocols
