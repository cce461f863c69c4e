// aa_lint self-test fixture: must produce ZERO findings.
//
// Each block below would trip a rule, but carries the rule's waiver with a
// reason — exactly the escape hatch real code uses (e.g. the campaign's
// per-cell deadline clock, the atomic-write primitives). Also exercises the lexer: rule
// patterns inside comments and string literals must never fire.
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_set>

namespace fixture {

// Mentioning std::random_device or plan_window( in a comment is fine, as
// is a log string: "rand() is banned; so is std::ofstream".
inline const char* kDoc =
    "calls like time(nullptr) and fopen(path) in strings do not count";

inline long long waived_deadline() {
  // aa-lint: clock-ok(fixture: mirrors the campaign deadline waiver)
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

struct WaivedSet {
  // aa-lint: ordered-ok(fixture: never iterated, membership checks only)
  std::unordered_set<int> members;
};

inline void waived_write(const std::string& tmp) {
  // aa-lint: write-ok(fixture: stands in for an atomic-write primitive)
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f != nullptr) std::fclose(f);
}

}  // namespace fixture
