#include "core/exhaustive.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <queue>
#include <set>

#include "core/experiment.hpp"
#include "util/check.hpp"

namespace aa::core {

namespace {

/// Dedup key: the encoded point plus nothing else (x/out fully determine
/// the abstract state).
using Key = std::vector<int>;

Key key_of(const AbstractConfig& c) {
  Key k;
  k.reserve(2 * c.x.size());
  k.insert(k.end(), c.x.begin(), c.x.end());
  k.insert(k.end(), c.out.begin(), c.out.end());
  return k;
}

bool check_invariants(const AbstractConfig& c,
                      const std::array<bool, 2>& valid_values,
                      ExhaustiveReport& report) {
  bool has[2] = {false, false};
  for (int o : c.out) {
    if (o == 0 || o == 1) {
      has[o] = true;
      if (!valid_values[static_cast<std::size_t>(o)]) {
        report.validity_ok = false;
      }
    }
  }
  if (has[0] && has[1]) report.agreement_ok = false;
  if (!report.clean() && !report.violation) report.violation = c;
  return report.clean();
}

/// All subset indicator vectors of [0,n) with popcount in [lo, hi].
std::vector<std::vector<bool>> subsets_with_popcount(int n, int lo, int hi) {
  AA_REQUIRE(n <= 20, "exhaustive checker: n too large to enumerate subsets");
  std::vector<std::vector<bool>> out;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    const int pc = __builtin_popcount(mask);
    if (pc < lo || pc > hi) continue;
    std::vector<bool> ind(static_cast<std::size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) ind[static_cast<std::size_t>(i)] = true;
    }
    out.push_back(std::move(ind));
  }
  return out;
}

/// All successors of `c` in the canonical enumeration order (delivery sets,
/// then coin vectors, then reset sets). Pure: safe to call concurrently for
/// distinct frontier configurations.
std::vector<AbstractConfig> expand_config(
    const AbstractConfig& c, int t, const protocols::Thresholds& th,
    const std::vector<std::vector<bool>>& s_choices,
    const std::vector<std::vector<bool>>& r_choices) {
  const int n = c.n();
  std::vector<AbstractConfig> out;
  for (const auto& in_s : s_choices) {
    // Which processors flip coins is a function of (c, S) only; the
    // reset set R never affects the tally. Enumerate coin vectors once
    // per (c, S) and apply every R to each outcome.
    const std::vector<bool> flips = coin_flippers(c, in_s, th);
    std::vector<int> flip_ids;
    for (int i = 0; i < n; ++i) {
      if (flips[static_cast<std::size_t>(i)]) flip_ids.push_back(i);
    }
    AA_CHECK(flip_ids.size() <= 20,
             "exhaustive checker: too many simultaneous coins");
    const std::uint32_t coin_combos = 1u
                                      << static_cast<int>(flip_ids.size());
    for (std::uint32_t coins = 0; coins < coin_combos; ++coins) {
      const auto coin_for = [&](int proc) {
        for (std::size_t j = 0; j < flip_ids.size(); ++j) {
          if (flip_ids[j] == proc)
            return (coins >> j) & 1u ? 1 : 0;
        }
        AA_CHECK(false, "coin requested for non-flipping processor");
        return 0;
      };
      for (const auto& in_r : r_choices) {
        out.push_back(
            apply_abstract_window_det(c, in_r, in_s, th, t, coin_for));
      }
    }
  }
  return out;
}

ExhaustiveReport explore(int t, const protocols::Thresholds& th,
                         const AbstractConfig& start,
                         const std::array<bool, 2>& valid_values,
                         const ExhaustiveOptions& options,
                         CampaignContext& ctx) {
  const int n = start.n();
  ExhaustiveReport report;

  const std::vector<std::vector<bool>> s_choices =
      subsets_with_popcount(n, n - t, n);
  const std::vector<std::vector<bool>> r_choices =
      subsets_with_popcount(n, 0, t);

  std::set<Key> seen;
  std::vector<AbstractConfig> frontier{start};
  seen.insert(key_of(start));
  report.configs_explored = 1;
  if (!check_invariants(start, valid_values, report)) return report;

  // Successor generation (the apply_abstract_window_det sweep) runs in
  // parallel over blocks of frontier configurations; dedup, invariant
  // checks, and the transition count happen in a serial merge pass that
  // walks candidates in exactly the order the serial loop would generate
  // them. Early exits (violation found, budget exhausted) fire at the same
  // candidate regardless of thread count, so reports are bit-identical —
  // parallelism only ever wastes a little generation work past the exit.
  // Peak memory is one block of expanded successor lists (block size =
  // worker count, the minimum that keeps every worker busy); the context's
  // long-lived pool is shared across all blocks, depths — and checks.
  ParallelConfig gen = ctx.parallel();
  gen.chunk_size = 1;  // one frontier configuration is already a big job
  const int block = gen.resolved_threads();

  for (int depth = 0; depth < options.max_depth; ++depth) {
    std::vector<AbstractConfig> next_frontier;
    const int frontier_size = static_cast<int>(frontier.size());
    for (int base = 0; base < frontier_size; base += block) {
      const int count = std::min(block, frontier_size - base);
      std::vector<std::vector<AbstractConfig>> produced(
          static_cast<std::size_t>(count));
      const auto body = [&](int, std::int64_t begin, std::int64_t end) {
        for (std::int64_t fi = begin; fi < end; ++fi) {
          produced[static_cast<std::size_t>(fi)] = expand_config(
              frontier[static_cast<std::size_t>(base + fi)], t, th,
              s_choices, r_choices);
        }
      };
      parallel_for_chunks(count, gen, body, ctx.pool());
      for (std::vector<AbstractConfig>& candidates : produced) {
        for (AbstractConfig& next : candidates) {
          ++report.transitions;
          Key k = key_of(next);
          if (!seen.insert(std::move(k)).second) continue;
          ++report.configs_explored;
          if (!check_invariants(next, valid_values, report)) return report;
          next_frontier.push_back(std::move(next));
          if (seen.size() >= options.max_configs) {
            report.budget_exhausted = true;
            report.depth_completed = depth;
            return report;
          }
        }
      }
    }
    frontier = std::move(next_frontier);
    report.depth_completed = depth + 1;
    if (frontier.empty()) {
      // Closed under transitions: every deeper level is explored vacuously.
      report.depth_completed = options.max_depth;
      break;
    }
  }
  return report;
}

}  // namespace

ExhaustiveReport exhaustive_check(int t, const protocols::Thresholds& th,
                                  const std::vector<int>& inputs,
                                  const ExhaustiveOptions& options,
                                  CampaignContext& ctx) {
  std::array<bool, 2> valid{false, false};
  for (int b : inputs) {
    AA_REQUIRE(b == 0 || b == 1, "exhaustive_check: inputs must be bits");
    valid[static_cast<std::size_t>(b)] = true;
  }
  return explore(t, th, initial_config(inputs), valid, options, ctx);
}

ExhaustiveReport exhaustive_check(int t, const protocols::Thresholds& th,
                                  const std::vector<int>& inputs,
                                  const ExhaustiveOptions& options) {
  CampaignContext ctx(ParallelConfig{});
  return exhaustive_check(t, th, inputs, options, ctx);
}

ExhaustiveReport exhaustive_check_from(int t, const protocols::Thresholds& th,
                                       const AbstractConfig& start,
                                       const std::array<bool, 2>& valid_values,
                                       const ExhaustiveOptions& options,
                                       CampaignContext& ctx) {
  return explore(t, th, start, valid_values, options, ctx);
}

ExhaustiveReport exhaustive_check_from(int t, const protocols::Thresholds& th,
                                       const AbstractConfig& start,
                                       const std::array<bool, 2>& valid_values,
                                       const ExhaustiveOptions& options) {
  CampaignContext ctx(ParallelConfig{});
  return exhaustive_check_from(t, th, start, valid_values, options, ctx);
}

}  // namespace aa::core
