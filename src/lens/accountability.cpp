#include "lens/accountability.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace aa::lens {

void LatencyAccumulator::ensure(int n) {
  if (n_ == n) return;
  AA_REQUIRE(n_ == -1,
             "LatencyAccumulator: folds with different n cannot be merged");
  AA_REQUIRE(n > 0, "LatencyAccumulator: n must be positive");
  n_ = n;
  const auto nn = static_cast<std::size_t>(n);
  sent_.assign(nn, 0);
  equivocations_.assign(nn, 0);
  delivered_.assign(nn, 0);
  suppressed_.assign(nn, 0);
  confirm_count_.assign(nn, 0);
  confirm_window_sum_.assign(nn, 0);
  confirm_step_sum_.assign(nn, 0);
  delivery_hist_.assign(nn * static_cast<std::size_t>(WindowTrace::kBuckets),
                        0);
  confirm_hist_.assign(nn * static_cast<std::size_t>(WindowTrace::kBuckets),
                       0);
}

void LatencyAccumulator::add(const WindowTrace& trace) {
  ensure(trace.n());
  ++trials_;
  deciders_ += trace.deciders();
  for (sim::ProcId s = 0; s < n_; ++s) {
    const auto si = static_cast<std::size_t>(s);
    sent_[si] += trace.sent(s);
    equivocations_[si] += trace.equivocations(s);
    delivered_[si] += trace.delivered_total(s);
    suppressed_[si] += trace.suppressed_total(s);
    confirm_count_[si] += trace.confirm_count(s);
    confirm_window_sum_[si] += trace.confirm_window_sum(s);
    confirm_step_sum_[si] += trace.confirm_step_sum(s);
    for (int b = 0; b < WindowTrace::kBuckets; ++b) {
      const std::size_t h =
          si * static_cast<std::size_t>(WindowTrace::kBuckets) +
          static_cast<std::size_t>(b);
      delivery_hist_[h] += trace.delivery_hist(s, b);
      confirm_hist_[h] += trace.confirm_hist(s, b);
    }
  }
}

void LatencyAccumulator::merge(const LatencyAccumulator& other) {
  if (other.n_ == -1) return;  // merging the identity
  ensure(other.n_);
  trials_ += other.trials_;
  deciders_ += other.deciders_;
  for (std::size_t i = 0; i < sent_.size(); ++i) {
    sent_[i] += other.sent_[i];
    equivocations_[i] += other.equivocations_[i];
    delivered_[i] += other.delivered_[i];
    suppressed_[i] += other.suppressed_[i];
    confirm_count_[i] += other.confirm_count_[i];
    confirm_window_sum_[i] += other.confirm_window_sum_[i];
    confirm_step_sum_[i] += other.confirm_step_sum_[i];
  }
  for (std::size_t i = 0; i < delivery_hist_.size(); ++i) {
    delivery_hist_[i] += other.delivery_hist_[i];
    confirm_hist_[i] += other.confirm_hist_[i];
  }
}

void derive_accountability(LatencyReport& rep) {
  rep.blamed_equivocators.clear();
  rep.blamed_censored.clear();
  if (rep.senders.empty()) return;
  // The window contract's fair long-run share: each receiver hears at
  // least n − t senders per window (Definition 1).
  const double expected =
      static_cast<double>(rep.n - rep.t) / static_cast<double>(rep.n);
  for (sim::ProcId s = 0; s < static_cast<sim::ProcId>(rep.senders.size());
       ++s) {
    SenderLatency& row = rep.senders[static_cast<std::size_t>(s)];
    if (row.confirm_count == 0) {
      row.mean_confirm_windows = 0.0;
      row.mean_confirm_steps = 0.0;
    }
    const std::int64_t fate = row.delivered + row.suppressed;
    row.delivered_share =
        fate > 0 ? static_cast<double>(row.delivered) /
                       static_cast<double>(fate)
                 : 1.0;
    row.confirmed_share =
        rep.deciders > 0 ? static_cast<double>(row.confirm_count) /
                               static_cast<double>(rep.deciders)
                         : 1.0;
    row.censorship_score =
        row.sent > 0
            ? std::max(0.0, expected - std::min(row.delivered_share,
                                                row.confirmed_share))
            : 0.0;
    if (row.equivocations > 0) rep.blamed_equivocators.push_back(s);
    if (row.censorship_score > rep.blame_threshold) {
      rep.blamed_censored.push_back(s);
    }
  }
}

LatencyReport LatencyAccumulator::finalize(int t,
                                           double blame_threshold) const {
  LatencyReport rep;
  rep.t = t;
  rep.trials = trials_;
  rep.deciders = deciders_;
  rep.blame_threshold = blame_threshold;
  if (n_ == -1) return rep;  // empty identity finalizes to an empty report
  AA_REQUIRE(t >= 0 && t < n_, "LatencyAccumulator::finalize: bad t");
  rep.n = n_;
  rep.senders.resize(static_cast<std::size_t>(n_));
  for (sim::ProcId s = 0; s < n_; ++s) {
    const auto si = static_cast<std::size_t>(s);
    SenderLatency& row = rep.senders[si];
    row.sent = sent_[si];
    row.equivocations = equivocations_[si];
    row.delivered = delivered_[si];
    row.suppressed = suppressed_[si];
    row.confirm_count = confirm_count_[si];
    if (row.confirm_count > 0) {
      row.mean_confirm_windows =
          static_cast<double>(confirm_window_sum_[si]) /
          static_cast<double>(row.confirm_count);
      row.mean_confirm_steps = static_cast<double>(confirm_step_sum_[si]) /
                               static_cast<double>(row.confirm_count);
    }
    for (int b = 0; b < WindowTrace::kBuckets; ++b) {
      const std::size_t h =
          si * static_cast<std::size_t>(WindowTrace::kBuckets) +
          static_cast<std::size_t>(b);
      row.delivery_hist[static_cast<std::size_t>(b)] = delivery_hist_[h];
      row.confirm_hist[static_cast<std::size_t>(b)] = confirm_hist_[h];
    }
  }
  derive_accountability(rep);
  return rep;
}

}  // namespace aa::lens
