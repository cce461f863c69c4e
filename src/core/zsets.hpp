// The progress-set machinery of §4.2 (Definitions 10 & 12, Lemmas 11 & 13),
// made executable for the §3 threshold-voting algorithm.
//
// The paper's sets Z^k_0 / Z^k_1 live in the joint state space Σ^n. For the
// §3 algorithm running in lockstep under acceptable windows, a
// configuration is captured (up to behaviourally irrelevant detail) by each
// processor's (estimate x_i, output o_i, rejoining?) triple — the
// ABSTRACT CONFIGURATION below. The per-window transition of the algorithm
// is then an explicit function of the abstract configuration, the
// adversary's (R, S) choice, and fresh per-processor coins — a product
// distribution, exactly as Lemma 13's proof requires. This lets us:
//
//   * sample reachable configurations (random canonical windows),
//   * test Z^0 membership exactly and Z^k membership by Monte-Carlo
//     recursion over the canonical window family the proofs use
//     (R = a t-prefix, S = an (n−t)-suffix),
//   * measure the Hamming separation Lemma 13 asserts (experiment T3).
//
// Faithfulness: tests cross-validate the abstract transition against the
// real engine running ResetProcess under the same windows.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "prob/product.hpp"
#include "protocols/thresholds.hpp"
#include "util/rng.hpp"

namespace aa::core {

/// Per-processor abstract state; `x == kXRejoining` marks a processor that
/// was reset and has not yet rejoined (it sends nothing next window).
inline constexpr int kXRejoining = -1;

struct AbstractConfig {
  std::vector<int> x;    ///< estimate: 0/1, or kXRejoining
  std::vector<int> out;  ///< output bit: -1 (⊥), 0, 1

  [[nodiscard]] int n() const noexcept { return static_cast<int>(x.size()); }
  friend bool operator==(const AbstractConfig&, const AbstractConfig&) = default;
};

/// Initial configuration from input bits.
[[nodiscard]] AbstractConfig initial_config(const std::vector<int>& inputs);

/// Encode into a prob::Point for the Hamming machinery. Coordinate alphabet:
/// 0/1 = undecided with x, 2 = rejoining, 3/4 = decided 0/1 (the coordinate
/// folds the decided processor's x into its decided value — once decided,
/// x tracks the decision in every execution the lemmas consider).
[[nodiscard]] prob::Point encode_config(const AbstractConfig& c);

/// One acceptable window of the §3 algorithm in the abstract model:
/// every non-rejoining processor sends its x; every processor receives the
/// votes of senders in S (ascending id order), consumes the first T1, and
/// applies protocols::step3 (decide at T2, adopt at T3, else coin from
/// `rng`);
/// rejoining processors adopt the common round and re-enter step 3 the same
/// way; finally processors in R are reset (x := kXRejoining).
/// `in_s` and `in_r` are indicator vectors; |S| ≥ n − t and |R| ≤ t are the
/// caller's responsibility (validated).
[[nodiscard]] AbstractConfig apply_abstract_window(
    const AbstractConfig& c, const std::vector<bool>& in_r,
    const std::vector<bool>& in_s, const protocols::Thresholds& th, int t,
    Rng& rng);

/// Deterministic variant: `coin_for(i)` supplies the fresh bit for
/// processor i when step 3 randomizes (consulted only for coordinates that
/// actually flip, in ascending id order). The Rng overload above is
/// implemented on top of this. Used by the exhaustive checker to enumerate
/// every coin outcome.
[[nodiscard]] AbstractConfig apply_abstract_window_det(
    const AbstractConfig& c, const std::vector<bool>& in_r,
    const std::vector<bool>& in_s, const protocols::Thresholds& th, int t,
    const std::function<int(int)>& coin_for);

/// Indicator vector of which processors would flip a coin if this window
/// were applied: every processor when the window's T1 votes make
/// protocols::step3 say coin, else none.
[[nodiscard]] std::vector<bool> coin_flippers(const AbstractConfig& c,
                                              const std::vector<bool>& in_s,
                                              const protocols::Thresholds& th);

/// Z-set estimator for the abstract model.
class ZSetEstimator {
 public:
  /// `tau` defaults to the paper's e^{−t²/8n} when ≤ 0.
  ZSetEstimator(int n, int t, protocols::Thresholds th, double tau = -1.0);

  /// Z^0_v membership: some output equals v (Definition 10) — exact.
  [[nodiscard]] bool in_z0(const AbstractConfig& c, int v) const;

  /// Monte-Carlo estimate of the probability that applying the canonical
  /// window (R = first t ids, S = last n − t ids) to `c` lands in
  /// Z^{k−1}_v; recursion depth k, `samples` draws per level.
  [[nodiscard]] double prob_reach_z(const AbstractConfig& c, int v, int k,
                                    int samples, Rng& rng) const;

  /// Definition 12 membership test against the canonical window family,
  /// via prob_reach_z > tau.
  [[nodiscard]] bool in_zk(const AbstractConfig& c, int v, int k, int samples,
                           Rng& rng) const;

  [[nodiscard]] double tau() const noexcept { return tau_; }

 private:
  int n_;
  int t_;
  protocols::Thresholds th_;
  double tau_;
  std::vector<bool> canon_r_;
  std::vector<bool> canon_s_;
};

/// Sample `count` reachable configurations by running random canonical
/// windows from random-ish inputs for random lengths (≤ max_windows).
[[nodiscard]] std::vector<AbstractConfig> sample_reachable_configs(
    int n, int t, const protocols::Thresholds& th, int count, int max_windows,
    Rng& rng);

/// Experiment T3: bucket sampled reachable configurations into estimated
/// Z^k_0 and Z^k_1 and report the minimum observed Hamming distance between
/// the buckets (Lemma 13 predicts > t whenever both are non-empty).
struct SeparationReport {
  int k = 0;
  int z0_count = 0;
  int z1_count = 0;
  int min_distance = -1;  ///< -1 when a bucket is empty
  bool satisfies_lemma = false;
};
[[nodiscard]] SeparationReport measure_separation(
    int n, int t, const protocols::Thresholds& th, int k, int config_samples,
    int mc_samples, Rng& rng);

}  // namespace aa::core
