// Deterministic, forkable pseudo-random number generation.
//
// All randomness in the library flows from a single root seed through
// explicitly forked streams (one per processor, per window, per replica),
// so every execution is exactly replayable (see the README's "Parallel
// trial engine").
//
// The generator is xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
// Forking derives an independent stream by hashing (state, stream-id)
// through SplitMix64 — the standard recommended stream-splitting scheme.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace aa {

/// SplitMix64: tiny 64-bit generator used for seeding and stream derivation.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value (also advances the state).
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG with 256-bit state.
class Xoshiro256ss {
 public:
  explicit constexpr Xoshiro256ss(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state()
      const noexcept {
    return s_;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_;
};

/// Rng: the library-facing generator. Wraps xoshiro256** with convenience
/// sampling helpers and deterministic stream forking.
///
/// Satisfies UniformRandomBitGenerator, so it can drive <random>
/// distributions where needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept : gen_(seed), seed_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }
  result_type operator()() noexcept { return gen_.next(); }

  /// Raw 64 bits.
  std::uint64_t next_u64() noexcept { return gen_.next(); }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
  }

  /// Fair coin.
  bool next_bool() noexcept { return (gen_.next() >> 63) != 0; }

  /// Bernoulli(p).
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Uniform integer in the inclusive range [lo, hi].
  /// Uses Lemire-style rejection to avoid modulo bias.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    AA_REQUIRE(lo <= hi, "uniform_int: empty range");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(gen_.next());  // full range
    // Rejection sampling over the largest multiple of `span`.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v = gen_.next();
    while (v >= limit) v = gen_.next();
    return lo + static_cast<std::int64_t>(v % span);
  }

  /// Uniform index in [0, n).
  std::size_t uniform_index(std::size_t n) {
    AA_REQUIRE(n > 0, "uniform_index: n must be positive");
    return static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Derive an independent child stream identified by `stream_id`.
  /// fork(i) on equal-state parents yields equal children; distinct ids or
  /// distinct parent states yield (statistically) independent children.
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const noexcept {
    SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1)));
    // Mix in the current generator state so forks after different amounts of
    // consumption differ.
    std::uint64_t h = sm.next();
    for (std::uint64_t w : gen_.state()) {
      h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return Rng(h);
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  Xoshiro256ss gen_;
  std::uint64_t seed_;
};

}  // namespace aa
