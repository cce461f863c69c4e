// Differential tests for the sorted flat round tally: ResetProcess,
// ForgetfulProcess and BenOrProcess against test-local reference copies
// that keep their tallies in a std::map, as those protocols once did.
// Seeded random vote streams — current, stale, future, far-future and
// extreme rounds, malformed kinds and values, repeated senders and
// interleaved resets — go to both, once through on_receive and once
// through on_receive_batch, and after every step the staged messages,
// round(), estimate(), output(), the next Rng draw and the held tallies
// must match.
#include <gtest/gtest.h>

#include <array>
#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "protocols/ben_or.hpp"
#include "protocols/forgetful.hpp"
#include "protocols/reset_agreement.hpp"

namespace aa::protocols {
namespace {

using sim::kBot;

// ---------------------------------------------------------------------------
// References: the std::map tallies, one node per round.

struct RefTally {
  std::int32_t arrivals = 0;
  std::int32_t count[2] = {0, 0};
  bool acted = false;  // Ben-Or only
};

class RefReset final : public sim::Process {
 public:
  RefReset(int input, Thresholds th) : th_(th), input_(input), x_(input) {}

  void on_start(sim::Outbox& out) override {
    out.broadcast(make_vote(round_, x_));
  }
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override {
    const sim::Message& m = env.payload;
    if (m.kind != kVoteKind) return;
    if (m.value != 0 && m.value != 1) return;
    RefTally& rt = votes_[m.round];
    if (rt.arrivals < th_.t1) ++rt.count[m.value];
    ++rt.arrivals;
    if (rejoining_) {
      if (rt.arrivals >= th_.t1) {
        round_ = m.round;
        rejoining_ = false;
        step3_and_advance(rng, out);
        try_advance(rng, out);
      }
      return;
    }
    try_advance(rng, out);
  }
  void on_reset() override {
    round_ = 1;
    x_ = kBot;
    votes_.clear();
    rejoining_ = true;
  }
  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override {
    return rejoining_ ? kBot : round_;
  }
  [[nodiscard]] int estimate() const override {
    return rejoining_ ? kBot : x_;
  }
  [[nodiscard]] const char* protocol_name() const override { return "ref"; }

  [[nodiscard]] bool rejoining() const { return rejoining_; }
  [[nodiscard]] const std::map<int, RefTally>& votes() const { return votes_; }

 private:
  void try_advance(Rng& rng, sim::Outbox& out) {
    while (true) {
      const auto it = votes_.find(round_);
      if (it == votes_.end() || it->second.arrivals < th_.t1) return;
      step3_and_advance(rng, out);
    }
  }
  void step3_and_advance(Rng& rng, sim::Outbox& out) {
    const std::int32_t* count = votes_.at(round_).count;
    for (int v = 0; v <= 1; ++v) {
      if (count[v] >= th_.t2 && output_ == kBot) output_ = v;
    }
    if (count[0] >= th_.t3) x_ = 0;
    else if (count[1] >= th_.t3) x_ = 1;
    else x_ = rng.next_bool() ? 1 : 0;
    ++round_;
    votes_.erase(votes_.begin(), votes_.lower_bound(round_));
    out.broadcast(make_vote(round_, x_));
  }

  Thresholds th_;
  int input_;
  int output_ = kBot;
  int round_ = 1;
  int x_;
  bool rejoining_ = false;
  std::map<int, RefTally> votes_;
};

class RefForgetful final : public sim::Process {
 public:
  RefForgetful(int input, Thresholds th, int memory_k)
      : th_(th), memory_k_(memory_k), input_(input), x_(input) {}

  void on_start(sim::Outbox& out) override {
    out.broadcast(make_vote(round_, x_));
  }
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override {
    const sim::Message& m = env.payload;
    if (m.kind != kVoteKind) return;
    if (m.value != 0 && m.value != 1) return;
    if (m.round < round_) return;
    // The horizon test in its overflow-free form (ForgetfulMemory covers
    // the overflow itself).
    if (memory_k_ > 0 && m.round - round_ >= memory_k_) return;
    RefTally& rt = votes_[m.round];
    if (rt.arrivals < th_.t1) ++rt.count[m.value];
    ++rt.arrivals;
    while (true) {
      const auto it = votes_.find(round_);
      if (it == votes_.end() || it->second.arrivals < th_.t1) return;
      const std::int32_t* count = it->second.count;
      for (int v = 0; v <= 1; ++v) {
        if (count[v] >= th_.t2 && output_ == kBot) output_ = v;
      }
      if (count[0] >= th_.t3) x_ = 0;
      else if (count[1] >= th_.t3) x_ = 1;
      else x_ = rng.next_bool() ? 1 : 0;
      ++round_;
      out.broadcast(make_vote(round_, x_));
      votes_.erase(votes_.begin(), votes_.lower_bound(round_));
    }
  }
  void on_reset() override {
    round_ = 1;
    x_ = input_;
    votes_.clear();
  }
  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return x_; }
  [[nodiscard]] const char* protocol_name() const override { return "ref"; }

  [[nodiscard]] const std::map<int, RefTally>& votes() const { return votes_; }

 private:
  Thresholds th_;
  int memory_k_;
  int input_;
  int output_ = kBot;
  int round_ = 1;
  int x_;
  std::map<int, RefTally> votes_;
};

class RefBenOr final : public sim::Process {
 public:
  RefBenOr(int n, int t, int input) : n_(n), t_(t), input_(input), x_(input) {}

  void on_start(sim::Outbox& out) override {
    out.broadcast(make_report(round_, x_));
  }
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override {
    const sim::Message& m = env.payload;
    int phase = 0;
    if (m.kind == kReportKind) phase = 1;
    else if (m.kind == kProposalKind) phase = 2;
    else return;
    if (phase == 1 && m.value != 0 && m.value != 1) return;
    if (phase == 2 && m.value != 0 && m.value != 1 && m.value != kBot) return;
    RefTally& pv = votes_[{m.round, phase}];
    if (pv.arrivals < n_ - t_ && (m.value == 0 || m.value == 1))
      ++pv.count[m.value];
    ++pv.arrivals;
    while (true) {
      auto it = votes_.find({round_, phase_});
      if (it == votes_.end()) return;
      RefTally& cur = it->second;
      if (cur.acted || cur.arrivals < n_ - t_) return;
      cur.acted = true;
      if (phase_ == 1) {
        int proposal = kBot;
        for (int v = 0; v <= 1; ++v) {
          if (2 * cur.count[v] > n_) proposal = v;
        }
        phase_ = 2;
        out.broadcast(make_proposal(round_, proposal));
      } else {
        for (int v = 0; v <= 1; ++v) {
          if (cur.count[v] >= t_ + 1 && output_ == kBot) output_ = v;
        }
        if (cur.count[0] >= 1) x_ = 0;
        else if (cur.count[1] >= 1) x_ = 1;
        else x_ = rng.next_bool() ? 1 : 0;
        ++round_;
        phase_ = 1;
        votes_.erase(votes_.begin(),
                     votes_.lower_bound(std::pair<int, int>{round_, 0}));
        out.broadcast(make_report(round_, x_));
      }
    }
  }
  void on_reset() override {
    round_ = 1;
    phase_ = 1;
    x_ = input_;
    votes_.clear();
  }
  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return x_; }
  [[nodiscard]] const char* protocol_name() const override { return "ref"; }

  [[nodiscard]] const std::map<std::pair<int, int>, RefTally>& votes() const {
    return votes_;
  }

 private:
  int n_;
  int t_;
  int input_;
  int output_ = kBot;
  int round_ = 1;
  int x_;
  int phase_ = 1;
  std::map<std::pair<int, int>, RefTally> votes_;
};

// ---------------------------------------------------------------------------
// Held tallies in one comparable shape: one row per (round, phase).

struct Row {
  int round;
  int phase;
  std::int32_t arrivals;
  std::int32_t c0;
  std::int32_t c1;
  bool acted;
  friend bool operator==(const Row&, const Row&) = default;
};

std::ostream& operator<<(std::ostream& os, const Row& r) {
  return os << "{r=" << r.round << " p=" << r.phase << " a=" << r.arrivals
            << " " << r.c0 << "/" << r.c1 << (r.acted ? " acted" : "") << "}";
}

Row row(int round, int phase, const VoteTally& t, bool acted = false) {
  return {round, phase, t.arrivals, t.count[0], t.count[1], acted};
}
Row row(int round, int phase, const RefTally& t) {
  return {round, phase, t.arrivals, t.count[0], t.count[1], t.acted};
}

std::vector<Row> rows(const RoundTally<VoteTally>& tally) {
  std::vector<Row> out;
  for (const auto& e : tally.entries()) out.push_back(row(e.round, 0, e.tally));
  return out;
}
std::vector<Row> rows(const RoundTally<BenOrProcess::RoundPhases>& tally) {
  std::vector<Row> out;
  for (const auto& e : tally.entries()) {
    for (int p = 0; p < 2; ++p) {
      const BenOrProcess::PhaseTally& pt = e.tally.phase[p];
      out.push_back(row(e.round, p + 1, pt.votes, pt.acted));
    }
  }
  return out;
}

// The reference keeps tallies for rounds below `floor` that nothing reads
// (the flat tally ignores such votes); everything at or above must match.
std::vector<Row> rows(const std::map<int, RefTally>& tally, int floor) {
  std::vector<Row> out;
  for (const auto& [r, t] : tally) {
    if (r >= floor) out.push_back(row(r, 0, t));
  }
  return out;
}
std::vector<Row> rows(const std::map<std::pair<int, int>, RefTally>& tally,
                      int floor) {
  // The flat tally holds both phases of every round it holds.
  std::map<int, std::array<Row, 2>> by_round;
  for (const auto& [key, t] : tally) {
    const auto [r, phase] = key;
    if (r < floor) continue;
    const std::array<Row, 2> empty{Row{r, 1, 0, 0, 0, false},
                                   Row{r, 2, 0, 0, 0, false}};
    auto& both = by_round.try_emplace(r, empty).first->second;
    both[static_cast<std::size_t>(phase - 1)] = row(r, phase, t);
  }
  std::vector<Row> out;
  for (const auto& [r, both] : by_round) {
    out.insert(out.end(), both.begin(), both.end());
  }
  return out;
}

// The lowest round the flat tally may hold: round() for a processor with a
// round, every round for one rejoining after a reset.
int floor_of(const RefReset& ref) {
  return ref.rejoining() ? INT_MIN : ref.round();
}
int floor_of(const RefForgetful& ref) { return ref.round(); }
int floor_of(const RefBenOr& ref) { return ref.round(); }
std::optional<int> current_round(const RefReset& ref) {
  if (ref.rejoining()) return std::nullopt;
  return ref.round();
}
std::optional<int> current_round(const sim::Process& ref) {
  return ref.round();
}

// ---------------------------------------------------------------------------
// Random vote streams.

struct StreamShape {
  int n;
  std::vector<std::int32_t> kinds;  ///< the protocol's valid message kinds
  /// Votes for INT_MAX allowed per stream: fewer than a round's threshold,
  /// so a rejoining processor never adopts INT_MAX and overflows the next
  /// round number — the reference would too.
  int int_max_cap;
};

class StreamGen {
 public:
  StreamGen(StreamShape shape, std::uint64_t seed)
      : shape_(std::move(shape)), rng_(seed) {}

  /// One delivery, or std::nullopt for a reset. `cur` is the processor's
  /// round (nullopt while rejoining: votes then cluster on a few rounds).
  std::optional<sim::Envelope> next(std::optional<int> cur) {
    if (pick(1000) < 5) return std::nullopt;
    sim::Envelope env;
    env.sender = static_cast<sim::ProcId>(pick(shape_.n));
    env.receiver = 0;
    env.payload.round = next_round(cur);
    if (pick(100) < 92) {
      env.payload.kind = shape_.kinds[pick(shape_.kinds.size())];
    } else {
      static constexpr std::int32_t kAnyKind[] = {0, kVoteKind, kReportKind,
                                                  kProposalKind, 4, 99, -7};
      env.payload.kind = kAnyKind[pick(std::size(kAnyKind))];
    }
    const std::uint64_t v = pick(100);
    if (v < 80) {
      env.payload.value = static_cast<std::int32_t>(pick(2));
    } else if (v < 88) {
      env.payload.value = kBot;
    } else {
      static constexpr std::int32_t kJunk[] = {2, -5, 7, INT_MAX, INT_MIN};
      env.payload.value = kJunk[pick(std::size(kJunk))];
    }
    return env;
  }

  std::uint64_t pick(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  }

 private:
  std::int32_t next_round(std::optional<int> cur) {
    const std::int64_t base =
        cur ? *cur : 1 + static_cast<std::int64_t>(pick(3));
    const std::uint64_t r = pick(100);
    std::int64_t round = base;
    if (r < 55) {
      round = base;
    } else if (r < 67) {
      round = base + 1;
    } else if (r < 72) {
      round = base + 2 + static_cast<std::int64_t>(pick(3));
    } else if (r < 84) {
      round = base - 1 - static_cast<std::int64_t>(pick(3));
    } else if (r < 88) {
      round = base + 50 + static_cast<std::int64_t>(pick(1'000'000));
    } else if (r < 90) {
      round = INT_MIN;
    } else if (r < 92 && int_max_sent_ < shape_.int_max_cap) {
      ++int_max_sent_;
      round = INT_MAX;
    } else if (r < 95) {
      round = -1 - static_cast<std::int64_t>(pick(10));
    }
    if (round > INT_MAX) round = INT_MAX;
    if (round < INT_MIN) round = INT_MIN;
    return static_cast<std::int32_t>(round);
  }

  StreamShape shape_;
  Rng rng_;
  int int_max_sent_ = 0;
};

// ---------------------------------------------------------------------------
// The differential driver.

struct Coverage {
  int steps = 0;
  int advances = 0;  ///< steps after which round() rose
  int resets = 0;
};

template <class Real, class Ref>
::testing::AssertionResult same_state(const Real& real, const Ref& ref,
                                      const sim::Outbox& real_out,
                                      const sim::Outbox& ref_out,
                                      Rng& real_rng, Rng& ref_rng) {
  if (real.round() != ref.round())
    return ::testing::AssertionFailure()
           << "round " << real.round() << " vs " << ref.round();
  if (real.estimate() != ref.estimate())
    return ::testing::AssertionFailure()
           << "estimate " << real.estimate() << " vs " << ref.estimate();
  if (real.output() != ref.output())
    return ::testing::AssertionFailure()
           << "output " << real.output() << " vs " << ref.output();
  const auto& a = real_out.items();
  const auto& b = ref_out.items();
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "staged " << a.size() << " vs " << b.size() << " messages";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].to != b[i].to || !(a[i].msg == b[i].msg))
      return ::testing::AssertionFailure() << "staged message " << i;
  }
  if (real_rng.next_u64() != ref_rng.next_u64())
    return ::testing::AssertionFailure() << "rng streams diverged";
  const std::vector<Row> held = rows(real.votes());
  const std::vector<Row> want = rows(ref.votes(), floor_of(ref));
  if (held != want) {
    auto failure = ::testing::AssertionFailure() << "held tallies:";
    for (const Row& r : held) failure << " " << r;
    failure << " want:";
    for (const Row& r : want) failure << " " << r;
    return failure;
  }
  return ::testing::AssertionSuccess();
}

/// Feed one seeded stream of `events` steps to a fresh real/reference pair,
/// one envelope per on_receive call or in random runs through
/// on_receive_batch, comparing after every step.
template <class Real, class Ref, class MakeReal, class MakeRef>
Coverage run_stream(MakeReal make_real, MakeRef make_ref,
                    const StreamShape& shape, std::uint64_t seed, bool batched,
                    int events) {
  Real real = make_real();
  Ref ref = make_ref();
  sim::Outbox real_out(shape.n);
  sim::Outbox ref_out(shape.n);
  Rng real_rng(seed * 7919 + 1);
  Rng ref_rng(seed * 7919 + 1);
  StreamGen gen(shape, seed);
  Coverage cov;
  real.on_start(real_out);
  ref.on_start(ref_out);
  EXPECT_TRUE(same_state(real, ref, real_out, ref_out, real_rng, ref_rng));
  real_out.clear();
  ref_out.clear();

  std::vector<sim::Envelope> run;
  std::vector<const sim::Envelope*> ptrs;
  while (cov.steps < events) {
    const int before = ref.round();
    const std::size_t want = batched ? 1 + gen.pick(8) : 1;
    run.clear();
    bool reset = false;
    while (run.size() < want) {
      std::optional<sim::Envelope> env = gen.next(current_round(ref));
      if (!env) {
        reset = true;
        break;
      }
      run.push_back(*env);
    }
    if (batched) {
      ptrs.clear();
      for (const sim::Envelope& env : run) ptrs.push_back(&env);
      real.on_receive_batch(ptrs, real_rng, real_out);
    } else {
      for (const sim::Envelope& env : run) {
        real.on_receive(env, real_rng, real_out);
      }
    }
    for (const sim::Envelope& env : run) ref.on_receive(env, ref_rng, ref_out);
    if (reset) {
      real.on_reset();
      ref.on_reset();
      real_out.clear();
      ref_out.clear();
      ++cov.resets;
    }
    ++cov.steps;
    const auto same =
        same_state(real, ref, real_out, ref_out, real_rng, ref_rng);
    if (!same) {
      ADD_FAILURE() << same.message() << " (seed " << seed << ", step "
                    << cov.steps << (batched ? ", batched" : "") << ")";
      return cov;
    }
    if (!reset && ref.round() != kBot && ref.round() > before) ++cov.advances;
    real_out.clear();
    ref_out.clear();
  }
  return cov;
}

template <class Real, class Ref, class MakeReal, class MakeRef>
void run_differential(MakeReal make_real, MakeRef make_ref,
                      const StreamShape& shape) {
  for (const bool batched : {false, true}) {
    Coverage total;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const Coverage cov = run_stream<Real, Ref>(make_real, make_ref, shape,
                                                 seed, batched, 3000);
      if (::testing::Test::HasFailure()) return;
      total.advances += cov.advances;
      total.resets += cov.resets;
    }
    // The streams must actually exercise the paths under test.
    EXPECT_GT(total.advances, 1000) << (batched ? "batched" : "per-envelope");
    EXPECT_GT(total.resets, 100) << (batched ? "batched" : "per-envelope");
  }
}

TEST(RoundTallyDifferential, ResetMatchesMapReference) {
  struct Config {
    int n;
    Thresholds th;
  };
  for (const Config c : {Config{7, {5, 5, 3}}, Config{7, {3, 3, 2}},
                         Config{13, {9, 8, 7}}}) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " T1=" + std::to_string(c.th.t1));
    run_differential<ResetProcess, RefReset>(
        [&] { return ResetProcess(0, c.n, 1, c.th); },
        [&] { return RefReset(1, c.th); },
        StreamShape{c.n, {kVoteKind}, c.th.t1 - 1});
  }
}

TEST(RoundTallyDifferential, ForgetfulMatchesMapReference) {
  for (const int n : {5, 7}) {
    for (const int memory_k : {0, 1, 3}) {
      const Thresholds th = forgetful_thresholds(n, 1);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " memory_k=" + std::to_string(memory_k));
      run_differential<ForgetfulProcess, RefForgetful>(
          [&] { return ForgetfulProcess(0, n, 0, th, memory_k); },
          [&] { return RefForgetful(0, th, memory_k); },
          StreamShape{n, {kVoteKind}, th.t1 - 1});
    }
  }
}

TEST(RoundTallyDifferential, BenOrMatchesMapReference) {
  for (const auto& [n, t] : {std::pair{5, 2}, std::pair{7, 1}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " t=" + std::to_string(t));
    run_differential<BenOrProcess, RefBenOr>(
        [&] { return BenOrProcess(0, n, t, 1); },
        [&] { return RefBenOr(n, t, 1); },
        StreamShape{n, {kReportKind, kProposalKind}, n - t - 1});
  }
}

// ---------------------------------------------------------------------------
// Hostile rounds: one vote for INT_MAX, INT_MIN or a negative round changes
// nothing the reference does not, for a fresh processor, one a few rounds
// in, and (reset protocol) one rejoining after a reset.

template <class Real, class Ref>
void expect_hostile_rounds_harmless(Real real, Ref ref, int n,
                                    std::int32_t kind,
                                    std::vector<std::int32_t> round_kinds,
                                    int warmup_rounds, bool reset) {
  sim::Outbox real_out(n);
  sim::Outbox ref_out(n);
  Rng real_rng(5);
  Rng ref_rng(5);
  sim::Envelope env;
  env.receiver = 0;
  // Unanimous votes of every kind a round needs walk both forward.
  for (int r = 1; r <= warmup_rounds; ++r) {
    for (const std::int32_t k : round_kinds) {
      for (int s = 0; s < n; ++s) {
        env.sender = s;
        env.payload = sim::Message{r, k, 1, 0};
        real.on_receive(env, real_rng, real_out);
        ref.on_receive(env, ref_rng, ref_out);
      }
    }
  }
  if (reset) {
    real.on_reset();
    ref.on_reset();
  }
  real_out.clear();
  ref_out.clear();
  ASSERT_TRUE(same_state(real, ref, real_out, ref_out, real_rng, ref_rng));
  const int start_round = real.round();
  for (const std::int32_t round : {INT_MAX, INT_MIN, -1, -1000}) {
    env.sender = 1;
    env.payload = sim::Message{round, kind, 0, 0};
    real.on_receive(env, real_rng, real_out);
    ref.on_receive(env, ref_rng, ref_out);
    ASSERT_TRUE(same_state(real, ref, real_out, ref_out, real_rng, ref_rng))
        << "round " << round;
    EXPECT_TRUE(real_out.empty());
    EXPECT_EQ(real.round(), start_round);
  }
  // A hostile round costs at most one held entry per distinct round.
  EXPECT_LE(real.votes().entries().size(), 4u);
}

TEST(RoundTallyRobustness, HostileRoundsChangeNothingTheReferenceDoesNot) {
  const Thresholds th{5, 5, 3};
  const Thresholds fth = forgetful_thresholds(7, 1);
  const std::vector<std::int32_t> votes{kVoteKind};
  const std::vector<std::int32_t> phases{kReportKind, kProposalKind};
  for (const int warmup : {0, 3}) {
    SCOPED_TRACE("warmup=" + std::to_string(warmup));
    for (const bool reset : {false, true}) {
      expect_hostile_rounds_harmless(ResetProcess(0, 7, 1, th),
                                     RefReset(1, th), 7, kVoteKind, votes,
                                     warmup, reset);
    }
    for (const int memory_k : {0, 2}) {
      expect_hostile_rounds_harmless(ForgetfulProcess(0, 7, 1, fth, memory_k),
                                     RefForgetful(1, fth, memory_k), 7,
                                     kVoteKind, votes, warmup, false);
    }
    for (const std::int32_t kind : phases) {
      expect_hostile_rounds_harmless(BenOrProcess(0, 7, 2, 1),
                                     RefBenOr(7, 2, 1), 7, kind, phases,
                                     warmup, false);
    }
  }
}

// ---------------------------------------------------------------------------
// The container itself.

TEST(RoundTally, KeepsRoundsSortedAndDropsAPrefix) {
  RoundTally<VoteTally> tally;
  for (const int r : {5, INT_MAX, 2, INT_MIN, 5, 3}) tally.at(r).add(1, 3);
  std::vector<int> held;
  for (const auto& e : tally.entries()) held.push_back(e.round);
  EXPECT_EQ(held, (std::vector<int>{INT_MIN, 2, 3, 5, INT_MAX}));
  EXPECT_EQ(tally.find(5)->arrivals, 2);
  EXPECT_EQ(tally.find(4), nullptr);
  tally.drop_below(4);
  ASSERT_EQ(tally.entries().size(), 2u);
  EXPECT_EQ(tally.entries()[0].round, 5);
  EXPECT_EQ(tally.find(3), nullptr);
  tally.drop_below(INT_MIN);
  EXPECT_EQ(tally.entries().size(), 2u);
  tally.clear();
  EXPECT_TRUE(tally.entries().empty());
}

TEST(RoundTally, VoteTallyCountsOnlyTheFirstCapArrivals) {
  VoteTally t;
  EXPECT_EQ(t.add(1, 2), 1);
  EXPECT_EQ(t.add(kBot, 2), 2);  // an arrival, no count
  EXPECT_EQ(t.add(0, 2), 3);     // past the cap: arrival only
  EXPECT_EQ(t.count[0], 0);
  EXPECT_EQ(t.count[1], 1);
}

}  // namespace
}  // namespace aa::protocols
