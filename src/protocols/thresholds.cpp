#include "protocols/thresholds.hpp"

#include <sstream>

#include "util/check.hpp"

namespace aa::protocols {

void require_step3_thresholds(const Thresholds& th, int counted,
                              const char* who) {
  AA_REQUIRE(th.t1 >= th.t2 && th.t2 >= th.t3 && th.t3 > 0,
             std::string(who) + ": need T1 >= T2 >= T3 > 0");
  AA_REQUIRE(2 * th.t3 > counted,
             std::string(who) + ": need 2*T3 > " + std::to_string(counted) +
                 " (the votes counted) so at most one value reaches T3");
}

Thresholds canonical_thresholds(int n, int t) {
  AA_REQUIRE(n > 0 && t >= 0, "canonical_thresholds: bad arguments");
  return Thresholds{n - 2 * t, n - 2 * t, n - 3 * t};
}

std::string threshold_violation(int n, int t, const Thresholds& th) {
  std::ostringstream os;
  if (th.t1 <= 0 || th.t2 <= 0 || th.t3 <= 0) {
    os << "thresholds must be positive";
    return os.str();
  }
  if (!(n - 2 * t >= th.t1)) {
    os << "need n - 2t >= T1 (got n=" << n << ", t=" << t << ", T1=" << th.t1
       << ")";
    return os.str();
  }
  if (!(th.t1 >= th.t2)) {
    os << "need T1 >= T2 (got T1=" << th.t1 << ", T2=" << th.t2 << ")";
    return os.str();
  }
  if (!(th.t2 >= th.t3 + t)) {
    os << "need T2 >= T3 + t (got T2=" << th.t2 << ", T3=" << th.t3
       << ", t=" << t << ")";
    return os.str();
  }
  if (!(2 * th.t3 > n)) {
    os << "need 2*T3 > n (got T3=" << th.t3 << ", n=" << n << ")";
    return os.str();
  }
  return {};
}

bool thresholds_valid(int n, int t, const Thresholds& th) {
  return threshold_violation(n, t, th).empty();
}

int max_supported_t(int n) {
  AA_REQUIRE(n > 0, "max_supported_t: n must be positive");
  int best = 0;
  for (int t = 1; 6 * t < n; ++t) {
    if (thresholds_valid(n, t, canonical_thresholds(n, t))) best = t;
  }
  return best;
}

}  // namespace aa::protocols
