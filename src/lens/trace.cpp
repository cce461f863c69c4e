#include "lens/trace.hpp"

namespace aa::lens {

void WindowTrace::begin_trial(int n) {
  AA_REQUIRE(n > 0, "WindowTrace: n must be positive");
  n_ = n;
  const auto nn = static_cast<std::size_t>(n);
  sent_.assign(nn, 0);
  equivocations_.assign(nn, 0);
  confirm_count_.assign(nn, 0);
  confirm_window_sum_.assign(nn, 0);
  confirm_step_sum_.assign(nn, 0);
  delivered_.assign(nn * nn, 0);
  suppressed_.assign(nn * nn, 0);
  first_window_.assign(nn * nn, -1);
  first_step_.assign(nn * nn, -1);
  decision_window_.assign(nn, -1);
  delivery_hist_.assign(nn * static_cast<std::size_t>(kBuckets), 0);
  confirm_hist_.assign(nn * static_cast<std::size_t>(kBuckets), 0);
  deciders_ = 0;
}

void WindowTrace::on_publish(sim::ProcId sender,
                             std::span<const sim::StagedMessage> items,
                             std::int64_t /*window*/) {
  const std::size_t s = idx(sender);
  // Within-batch equivocation scan: message i equivocates when an earlier
  // message shares its (round, kind, aux) key but carries the other bit
  // value. Each message counts at most once. One pass: each key remembers
  // which bit values it has seen so far. A broadcast item is n messages
  // with one value, so it weighs n in both counts.
  run_keys_.clear();
  for (const sim::StagedMessage& item : items) {
    const std::int64_t copies = item.to == sim::kEveryone ? n_ : 1;
    sent_[s] += copies;
    const sim::Message& m = item.msg;
    if (m.value != 0 && m.value != 1) continue;
    KeyBits* key = nullptr;
    for (KeyBits& k : run_keys_) {
      if (k.round == m.round && k.kind == m.kind && k.aux == m.aux) {
        key = &k;
        break;
      }
    }
    if (key == nullptr) {
      run_keys_.push_back(KeyBits{m.round, m.kind, m.aux, 0u});
      key = &run_keys_.back();
    }
    if ((key->bits & (1u << (1 - m.value))) != 0) {
      equivocations_[s] += copies;
    }
    key->bits |= 1u << m.value;
  }
}

void WindowTrace::on_deliver(const sim::Envelope& env, std::int64_t window,
                             std::int64_t step) {
  const std::size_t pr = pair(env.sender, env.receiver);
  ++delivered_[pr];
  if (first_window_[pr] < 0) {
    first_window_[pr] = window;
    first_step_[pr] = step;
  }
  ++delivery_hist_[hidx(env.sender, bucket_of(window - env.window))];
}

void WindowTrace::on_decision(sim::ProcId p, std::int64_t window,
                              std::int64_t step) {
  decision_window_[idx(p)] = window;
  ++deciders_;
  // Fold the confirmation span for every sender p has heard by now: the
  // lag between first hearing the sender and committing to an output is
  // the pod-style per-sender confirmation latency.
  for (sim::ProcId s = 0; s < n_; ++s) {
    const std::size_t pr = pair(s, p);
    if (first_window_[pr] < 0) continue;
    const std::int64_t wspan = window - first_window_[pr];
    const std::int64_t sspan = step - first_step_[pr];
    ++confirm_count_[idx(s)];
    confirm_window_sum_[idx(s)] += wspan;
    confirm_step_sum_[idx(s)] += sspan;
    ++confirm_hist_[hidx(s, bucket_of(wspan))];
  }
}

std::int64_t WindowTrace::delivered_total(sim::ProcId s) const {
  std::int64_t total = 0;
  for (sim::ProcId r = 0; r < n_; ++r) total += delivered_[pair(s, r)];
  return total;
}

std::int64_t WindowTrace::suppressed_total(sim::ProcId s) const {
  std::int64_t total = 0;
  for (sim::ProcId r = 0; r < n_; ++r) total += suppressed_[pair(s, r)];
  return total;
}

}  // namespace aa::lens
