#include "core/report.hpp"

#include <algorithm>

#include "core/json_io.hpp"

namespace aa::core {

void MeasureOneAccumulator::add(std::uint64_t seed, const TrialVerdict& v) {
  ++trials_;
  bool bad = false;
  if (!v.agreement) {
    ++agreement_violations_;
    bad = true;
  }
  if (!v.validity) {
    ++validity_violations_;
    bad = true;
  }
  if (bad) violating_seeds_.push_back(seed);
  if (v.decided) {
    ++decided_runs_;
    metric_sum_ += v.metric;
  }
  if (v.all_decided) ++all_decided_runs_;
}

void MeasureOneAccumulator::merge(const MeasureOneAccumulator& other) {
  trials_ += other.trials_;
  agreement_violations_ += other.agreement_violations_;
  validity_violations_ += other.validity_violations_;
  decided_runs_ += other.decided_runs_;
  all_decided_runs_ += other.all_decided_runs_;
  metric_sum_ += other.metric_sum_;
  violating_seeds_.insert(violating_seeds_.end(),
                          other.violating_seeds_.begin(),
                          other.violating_seeds_.end());
}

void MeasureOneAccumulator::restore(
    std::int64_t trials, std::int64_t agreement_violations,
    std::int64_t validity_violations, std::int64_t decided_runs,
    std::int64_t all_decided_runs, std::int64_t metric_sum,
    std::span<const std::uint64_t> violating_seeds) {
  trials_ = trials;
  agreement_violations_ = agreement_violations;
  validity_violations_ = validity_violations;
  decided_runs_ = decided_runs;
  all_decided_runs_ = all_decided_runs;
  metric_sum_ = metric_sum;
  violating_seeds_.assign(violating_seeds.begin(), violating_seeds.end());
}

MeasureOneReport MeasureOneAccumulator::finalize(bool async_metric) const {
  MeasureOneReport rep;
  rep.trials = static_cast<int>(trials_);
  rep.agreement_violations = static_cast<int>(agreement_violations_);
  rep.validity_violations = static_cast<int>(validity_violations_);
  rep.decided_runs = static_cast<int>(decided_runs_);
  rep.all_decided_runs = static_cast<int>(all_decided_runs_);
  const double mean =
      decided_runs_ > 0
          ? static_cast<double>(metric_sum_) / static_cast<double>(decided_runs_)
          : 0.0;
  rep.mean_windows_to_first = mean;
  if (async_metric) rep.mean_chain_at_decision = mean;
  rep.violating_seeds = violating_seeds_;
  std::sort(rep.violating_seeds.begin(), rep.violating_seeds.end());
  return rep;
}

namespace {

/// The lens sidecar's one layout (see core/json_io.hpp). The header's n, t
/// and trials are identity fields: a reader knows which cell it expects,
/// and the sender rows are as many as rep.senders holds.
template <class Io, class Report>
void latency_report_layout(Io& io, Report& rep) {
  io.lit("{\n");
  io.fixed_field("n", rep.n);
  io.fixed_field("t", rep.t);
  io.fixed_field("trials", rep.trials);
  io.field("deciders", rep.deciders);
  io.field("blame_threshold", rep.blame_threshold);
  io.lit("  \"senders\": [\n");
  for (std::size_t s = 0; s < rep.senders.size(); ++s) {
    auto& row = rep.senders[s];
    io.lit("    {\"sender\": ");
    io.fixed(s);
    io.entry("sent", row.sent);
    io.entry("equivocations", row.equivocations);
    io.entry("delivered", row.delivered);
    io.entry("suppressed", row.suppressed);
    io.entry("confirm_count", row.confirm_count);
    io.entry("mean_confirm_windows", row.mean_confirm_windows);
    io.entry("mean_confirm_steps", row.mean_confirm_steps);
    io.entry("delivered_share", row.delivered_share);
    io.entry("confirmed_share", row.confirmed_share);
    io.entry("censorship_score", row.censorship_score);
    io.lit(", \"delivery_hist\": ");
    io.list(row.delivery_hist, ", ");
    io.lit(", \"confirm_hist\": ");
    io.list(row.confirm_hist, ", ");
    io.lit(s + 1 != rep.senders.size() ? "},\n" : "}\n");
  }
  io.lit("  ],\n");
  io.list_field("blamed_equivocators", rep.blamed_equivocators, ", ");
  io.key("blamed_censored");
  io.list(rep.blamed_censored, ", ");
  io.lit("\n}\n");
}

}  // namespace

std::string latency_report_json(const lens::LatencyReport& rep) {
  JsonOut out;
  latency_report_layout(out, rep);
  return out.take();
}

bool latency_report_from_json(const std::string& text, int n, int t,
                              std::int64_t trials, lens::LatencyReport& rep) {
  rep = lens::LatencyReport{};
  rep.n = n;
  rep.t = t;
  rep.trials = trials;
  rep.senders.resize(static_cast<std::size_t>(n));
  JsonIn in(text);
  latency_report_layout(in, rep);
  return in.done();
}

}  // namespace aa::core
