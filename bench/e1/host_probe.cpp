#include "host_probe.hpp"

#include <algorithm>
#include <array>
#include <chrono>

namespace e1 {

namespace {

constexpr std::uint64_t kSeed = 0x9E3779B97F4A7C15ull;
constexpr int kSortsPerUnit = 16;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

std::uint64_t HostProbe::unit() {
  std::uint64_t x = kSeed;
  std::uint64_t acc = 0;
  for (int r = 0; r < kSortsPerUnit; ++r) {
    for (std::uint32_t& v : buffer_) v = static_cast<std::uint32_t>(xorshift(x));
    std::sort(buffer_.begin(), buffer_.end());
    acc += buffer_[static_cast<std::size_t>(r)];
  }
  return acc;
}

using clock = std::chrono::steady_clock;

void HostProbe::run_for(double seconds) {
  const clock::time_point start = clock::now();
  double elapsed = 0.0;
  do {
    sink_ ^= unit();
    ++units_;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < seconds);
  seconds_ += elapsed;
}

double HostProbe::time_unit() {
  const clock::time_point start = clock::now();
  sink_ ^= unit();
  return std::chrono::duration<double>(clock::now() - start).count();
}

}  // namespace e1
