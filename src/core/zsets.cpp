#include "core/zsets.hpp"

#include "prob/hamming.hpp"
#include "prob/talagrand.hpp"
#include "util/check.hpp"

namespace aa::core {

AbstractConfig initial_config(const std::vector<int>& inputs) {
  AbstractConfig c;
  c.x = inputs;
  for (int b : inputs)
    AA_REQUIRE(b == 0 || b == 1, "initial_config: inputs must be bits");
  c.out.assign(inputs.size(), -1);
  return c;
}

prob::Point encode_config(const AbstractConfig& c) {
  prob::Point p(c.x.size());
  for (std::size_t i = 0; i < c.x.size(); ++i) {
    if (c.out[i] != -1) p[i] = 3 + c.out[i];
    else if (c.x[i] == kXRejoining) p[i] = 2;
    else p[i] = c.x[i];
  }
  return p;
}

namespace {

/// The first-T1 vote tally a receiver consumes under delivery set S
/// (ascending sender order, rejoining processors send nothing). Returns
/// false when fewer than T1 votes are available (no progress this window).
bool window_tally(const AbstractConfig& c, const std::vector<bool>& in_s,
                  const protocols::Thresholds& th, int counts[2]) {
  const int n = c.n();
  counts[0] = counts[1] = 0;
  int taken = 0;
  for (int i = 0; i < n && taken < th.t1; ++i) {
    if (in_s[static_cast<std::size_t>(i)] &&
        c.x[static_cast<std::size_t>(i)] != kXRejoining) {
      ++counts[c.x[static_cast<std::size_t>(i)]];
      ++taken;
    }
  }
  return taken >= th.t1;
}

}  // namespace

std::vector<bool> coin_flippers(const AbstractConfig& c,
                                const std::vector<bool>& in_s,
                                const protocols::Thresholds& th) {
  int count[2];
  const bool flip = window_tally(c, in_s, th, count) &&
                    protocols::step3(th, count[0], count[1]).estimate ==
                        protocols::kFlipCoin;
  return std::vector<bool>(static_cast<std::size_t>(c.n()), flip);
}

AbstractConfig apply_abstract_window_det(
    const AbstractConfig& c, const std::vector<bool>& in_r,
    const std::vector<bool>& in_s, const protocols::Thresholds& th, int t,
    const std::function<int(int)>& coin_for) {
  const int n = c.n();
  AA_REQUIRE(static_cast<int>(in_r.size()) == n &&
                 static_cast<int>(in_s.size()) == n,
             "apply_abstract_window: indicator size mismatch");
  int s_size = 0;
  int r_size = 0;
  for (int i = 0; i < n; ++i) {
    if (in_s[static_cast<std::size_t>(i)]) ++s_size;
    if (in_r[static_cast<std::size_t>(i)]) ++r_size;
  }
  AA_REQUIRE(s_size >= n - t, "apply_abstract_window: |S| must be >= n - t");
  AA_REQUIRE(r_size <= t, "apply_abstract_window: |R| must be <= t");

  AbstractConfig next = c;
  int count[2];
  if (window_tally(c, in_s, th, count)) {
    // Every receiver consumes the same T1 votes, so step 3 has one outcome
    // for all of them — including rejoining processors, which adopt the
    // common round carried by the T1 votes and re-enter step 3.
    const protocols::Step3 s = protocols::step3(th, count[0], count[1]);
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (next.out[idx] == -1) next.out[idx] = s.decide;
      next.x[idx] = s.estimate == protocols::kFlipCoin ? coin_for(i)
                                                       : s.estimate;
    }
  }
  // else: too few senders were heard; nobody reaches T1 and states persist.

  // Resetting phase.
  for (int i = 0; i < n; ++i) {
    if (in_r[static_cast<std::size_t>(i)])
      next.x[static_cast<std::size_t>(i)] = kXRejoining;
  }
  return next;
}

AbstractConfig apply_abstract_window(const AbstractConfig& c,
                                     const std::vector<bool>& in_r,
                                     const std::vector<bool>& in_s,
                                     const protocols::Thresholds& th, int t,
                                     Rng& rng) {
  return apply_abstract_window_det(
      c, in_r, in_s, th, t,
      [&rng](int) { return rng.next_bool() ? 1 : 0; });
}

ZSetEstimator::ZSetEstimator(int n, int t, protocols::Thresholds th,
                             double tau)
    : n_(n), t_(t), th_(th) {
  AA_REQUIRE(n > 0 && t >= 0 && t < n, "ZSetEstimator: bad (n, t)");
  tau_ = tau > 0.0 ? tau : prob::tau_threshold(t, n);
  canon_r_.assign(static_cast<std::size_t>(n), false);
  canon_s_.assign(static_cast<std::size_t>(n), false);
  for (int i = 0; i < t; ++i) canon_r_[static_cast<std::size_t>(i)] = true;
  for (int i = t; i < n; ++i) canon_s_[static_cast<std::size_t>(i)] = true;
}

bool ZSetEstimator::in_z0(const AbstractConfig& c, int v) const {
  AA_REQUIRE(v == 0 || v == 1, "in_z0: v must be a bit");
  for (int o : c.out) {
    if (o == v) return true;
  }
  return false;
}

double ZSetEstimator::prob_reach_z(const AbstractConfig& c, int v, int k,
                                   int samples, Rng& rng) const {
  AA_REQUIRE(k >= 1, "prob_reach_z: k must be >= 1");
  AA_REQUIRE(samples > 0, "prob_reach_z: need samples");
  int hits = 0;
  for (int s = 0; s < samples; ++s) {
    const AbstractConfig next =
        apply_abstract_window(c, canon_r_, canon_s_, th_, t_, rng);
    const bool in_prev = (k == 1)
                             ? in_z0(next, v)
                             : in_zk(next, v, k - 1, samples, rng);
    if (in_prev) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

bool ZSetEstimator::in_zk(const AbstractConfig& c, int v, int k, int samples,
                          Rng& rng) const {
  if (k == 0) return in_z0(c, v);
  return prob_reach_z(c, v, k, samples, rng) > tau_;
}

std::vector<AbstractConfig> sample_reachable_configs(
    int n, int t, const protocols::Thresholds& th, int count, int max_windows,
    Rng& rng) {
  AA_REQUIRE(count > 0 && max_windows >= 0, "sample_reachable_configs: bad args");
  std::vector<AbstractConfig> configs;
  configs.reserve(static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    // Random inputs, random walk of random canonical windows.
    std::vector<int> inputs(static_cast<std::size_t>(n));
    for (int& b : inputs) b = rng.next_bool() ? 1 : 0;
    AbstractConfig cfg = initial_config(inputs);
    const int len = static_cast<int>(rng.uniform_int(0, max_windows));
    for (int w = 0; w < len; ++w) {
      // Random S of size n − t, random R of size ≤ t.
      std::vector<int> perm(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
      for (std::size_t j = 0; j + 1 < perm.size(); ++j) {
        const std::size_t kx = j + rng.uniform_index(perm.size() - j);
        std::swap(perm[j], perm[kx]);
      }
      std::vector<bool> in_s(static_cast<std::size_t>(n), false);
      for (int i = 0; i < n - t; ++i)
        in_s[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = true;
      std::vector<bool> in_r(static_cast<std::size_t>(n), false);
      const int resets = static_cast<int>(rng.uniform_int(0, t));
      for (int i = 0; i < resets; ++i)
        in_r[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = true;
      cfg = apply_abstract_window(cfg, in_r, in_s, th, t, rng);
    }
    configs.push_back(std::move(cfg));
  }
  return configs;
}

SeparationReport measure_separation(int n, int t,
                                    const protocols::Thresholds& th, int k,
                                    int config_samples, int mc_samples,
                                    Rng& rng) {
  const ZSetEstimator est(n, t, th);
  const std::vector<AbstractConfig> configs =
      sample_reachable_configs(n, t, th, config_samples, 3 * k + 4, rng);

  std::vector<prob::Point> z0;
  std::vector<prob::Point> z1;
  for (const AbstractConfig& c : configs) {
    if (est.in_zk(c, 0, k, mc_samples, rng)) z0.push_back(encode_config(c));
    if (est.in_zk(c, 1, k, mc_samples, rng)) z1.push_back(encode_config(c));
  }

  SeparationReport rep;
  rep.k = k;
  rep.z0_count = static_cast<int>(z0.size());
  rep.z1_count = static_cast<int>(z1.size());
  if (!z0.empty() && !z1.empty()) {
    rep.min_distance = prob::hamming_between_sets(z0, z1);
    rep.satisfies_lemma = rep.min_distance > t;
  } else {
    // An empty bucket is vacuous separation — Lemma 13 is not contradicted.
    rep.satisfies_lemma = true;
  }
  return rep;
}

}  // namespace aa::core
