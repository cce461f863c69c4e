// Bracha's agreement: aux packing, reliable-broadcast unit behaviour,
// end-to-end runs, and a differential test of the flat RBC records against
// a test-local copy of the std::map / std::set bookkeeping they replaced.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "protocols/bracha.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"
#include "sim/window.hpp"

namespace aa::protocols {
namespace {

using sim::Execution;
using sim::kBot;

TEST(BrachaAux, PackUnpackRoundTrip) {
  for (int orig : {0, 1, 63, 1000}) {
    for (int step : {1, 2, 3}) {
      for (bool flag : {false, true}) {
        const auto aux = pack_bracha_aux(orig, step, flag);
        const BrachaAux a = unpack_bracha_aux(aux);
        EXPECT_EQ(a.originator, orig);
        EXPECT_EQ(a.step, step);
        EXPECT_EQ(a.decide_flag, flag);
      }
    }
  }
}

TEST(BrachaAux, Validation) {
  EXPECT_THROW((void)pack_bracha_aux(-1, 1, false), std::invalid_argument);
  EXPECT_THROW((void)pack_bracha_aux(0, 0, false), std::invalid_argument);
  EXPECT_THROW((void)pack_bracha_aux(0, 4, false), std::invalid_argument);
}

TEST(Bracha, ConstructionValidation) {
  EXPECT_NO_THROW(BrachaProcess(0, 7, 2, 1));
  EXPECT_THROW(BrachaProcess(0, 6, 2, 1), std::invalid_argument);  // t >= n/3
  EXPECT_THROW(BrachaProcess(0, 7, 2, 5), std::invalid_argument);
}

TEST(Bracha, StartBroadcastsInit) {
  BrachaProcess p(2, 7, 2, 1);
  sim::Outbox out(7);
  p.on_start(out);
  ASSERT_EQ(out.message_count(), 7u);
  EXPECT_EQ(out.items()[0].msg.kind, kRbcInitKind);
  const BrachaAux a = unpack_bracha_aux(out.items()[0].msg.aux);
  EXPECT_EQ(a.originator, 2);
  EXPECT_EQ(a.step, 1);
}

TEST(Bracha, EchoOnFirstInitOnly) {
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 3;
  env.receiver = 0;
  env.payload.round = 1;
  env.payload.kind = kRbcInitKind;
  env.payload.value = 1;
  env.payload.aux = pack_bracha_aux(3, 1, false);
  p.on_receive(env, rng, out);
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));  // one echo burst
  EXPECT_EQ(out.items()[0].msg.kind, kRbcEchoKind);
  // Duplicate init: no second echo.
  p.on_receive(env, rng, out);
  EXPECT_EQ(out.message_count(), static_cast<std::size_t>(n));
}

TEST(Bracha, InitFromNonOriginatorIgnored) {
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 5;  // claims originator 3 — forged relay, ignored
  env.receiver = 0;
  env.payload.round = 1;
  env.payload.kind = kRbcInitKind;
  env.payload.value = 1;
  env.payload.aux = pack_bracha_aux(3, 1, false);
  p.on_receive(env, rng, out);
  EXPECT_TRUE(out.empty());
}

TEST(Bracha, ReadyAfterEchoQuorum) {
  const int n = 7;
  const int t = 2;
  const int echo_quorum = (n + t) / 2 + 1;  // 5
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < echo_quorum; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload.round = 1;
    env.payload.kind = kRbcEchoKind;
    env.payload.value = 1;
    env.payload.aux = pack_bracha_aux(6, 1, false);
    out.clear();
    p.on_receive(env, rng, out);
  }
  // The quorum-completing echo triggers the READY burst.
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.items()[0].msg.kind, kRbcReadyKind);
}

TEST(Bracha, ReadyAmplification) {
  // t + 1 readies (without echo quorum) also trigger READY.
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (int s = 0; s < t + 1; ++s) {
    sim::Envelope env;
    env.sender = s;
    env.receiver = 0;
    env.payload.round = 1;
    env.payload.kind = kRbcReadyKind;
    env.payload.value = 0;
    env.payload.aux = pack_bracha_aux(6, 1, false);
    out.clear();
    p.on_receive(env, rng, out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.items()[0].msg.kind, kRbcReadyKind);
}

TEST(Bracha, DuplicateEchoesFromSameSenderDontCount) {
  const int n = 7;
  const int t = 2;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  sim::Envelope env;
  env.sender = 1;
  env.receiver = 0;
  env.payload.round = 1;
  env.payload.kind = kRbcEchoKind;
  env.payload.value = 1;
  env.payload.aux = pack_bracha_aux(6, 1, false);
  for (int i = 0; i < 10; ++i) p.on_receive(env, rng, out);
  // 10 copies of one sender's echo: no ready.
  for (const auto& item : out.items())
    EXPECT_NE(item.msg.kind, kRbcReadyKind);
}

// An ECHO/READY quorum for an originator outside [0, n) used to reach the
// READY relay, whose pack_bracha_aux threw "originator out of range" for a
// negative one. Such messages are dropped: nothing is relayed.
void expect_foreign_originator_dropped(std::int32_t aux) {
  const int n = 4;
  const int t = 1;
  BrachaProcess p(0, n, t, 0);
  sim::Outbox out(n);
  Rng rng(1);
  for (const int kind : {kRbcEchoKind, kRbcReadyKind}) {
    for (int s = 0; s < n; ++s) {
      sim::Envelope env;
      env.sender = s;
      env.receiver = 0;
      env.payload.round = 1;
      env.payload.kind = kind;
      env.payload.value = 0;
      env.payload.aux = aux;
      ASSERT_NO_THROW(p.on_receive(env, rng, out)) << "kind " << kind;
    }
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(p.round(), 1);
}

TEST(Bracha, NegativeOriginatorDropped) {
  // The sample that threw on its third ECHO: originator −1, step 1.
  expect_foreign_originator_dropped((-1 * 8) | (1 << 1));
}

TEST(Bracha, OriginatorEqualToNDropped) {
  expect_foreign_originator_dropped(pack_bracha_aux(4, 1, false));
}

TEST(Bracha, EndToEndFairWindowsDecideAndAgree) {
  const int n = 7;
  const int t = 2;
  Execution e(make_processes(ProtocolKind::Bracha, t, split_inputs(n, 0.5)),
              11);
  adversary::FairWindowAdversary fair;
  const auto windows = sim::run_until_all_decided(e, fair, t, 500000);
  EXPECT_LT(windows, 500000);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
}

TEST(Bracha, UnanimousDecidesQuicklyUnderWindows) {
  const int n = 7;
  const int t = 2;
  for (int v = 0; v <= 1; ++v) {
    Execution e(make_processes(ProtocolKind::Bracha, t, unanimous_inputs(n, v)),
                static_cast<std::uint64_t>(v + 3));
    adversary::FairWindowAdversary fair;
    const auto windows = sim::run_until_all_decided(e, fair, t, 1000);
    EXPECT_LT(windows, 50);  // RBC costs a few windows per step; still fast
    for (int p = 0; p < n; ++p) EXPECT_EQ(e.output(p), v);
  }
}

TEST(Bracha, ToleratesSilencedMinority) {
  const int n = 10;
  const int t = 3;
  Execution e(make_processes(ProtocolKind::Bracha, t, split_inputs(n, 0.5)),
              13);
  adversary::SilencerWindowAdversary silencer({0, 1, 2});
  const auto windows = sim::run_until_all_decided(e, silencer, t, 500000);
  EXPECT_LT(windows, 500000);
  // The silenced processors still decide: they RECEIVE everything, they are
  // just never heard. Agreement must hold across all 10.
  EXPECT_TRUE(e.outputs_agree());
  int decided = 0;
  for (int p = 0; p < n; ++p) {
    if (e.output(p) != sim::kBot) ++decided;
  }
  EXPECT_GE(decided, n - t);
}

TEST(Bracha, AsyncRandomSchedulerAgrees) {
  const int n = 7;
  const int t = 2;
  Execution e(make_processes(ProtocolKind::Bracha, t, split_inputs(n, 0.5)),
              17);
  adversary::RandomAsyncScheduler sched(Rng(23));
  sim::run_async(e, sched, t, 10'000'000, /*until_all=*/true);
  EXPECT_TRUE(e.all_live_decided());
  EXPECT_TRUE(e.outputs_agree());
}

// ---------------------------------------------------------------------------
// Differential test: BrachaProcess against RefBracha, a copy of the
// std::map / std::set reliable-broadcast bookkeeping it once kept. Seeded
// random RBC streams go to both, once through on_receive and once through
// on_receive_batch, and after every step the staged messages, round(),
// estimate(), output() and the next Rng draw must match.

class RefBracha final : public sim::Process {
 public:
  /// `dedupe_per_sender`: a deliberately wrong variant that counts a
  /// sender once per instance instead of once per (kind, payload).
  RefBracha(int id, int n, int t, int input, bool dedupe_per_sender = false)
      : id_(id), n_(n), t_(t), input_(input), x_(input),
        dedupe_per_sender_(dedupe_per_sender) {}

  void on_start(sim::Outbox& out) override {
    rbc_broadcast(1, x_, false, out);
  }
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override {
    const sim::Message& m = env.payload;
    if (m.kind != kRbcInitKind && m.kind != kRbcEchoKind &&
        m.kind != kRbcReadyKind)
      return;
    handle_rbc(m, env.sender, out);
    try_advance(rng, out);
  }
  void on_reset() override {
    round_ = 1;
    step_ = 1;
    x_ = input_;
    x_flag_ = false;
    instances_.clear();
    step_votes_.clear();
  }

  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return x_; }
  [[nodiscard]] const char* protocol_name() const override {
    return "ref-bracha";
  }
  [[nodiscard]] int step() const { return step_; }

 private:
  using Payload = std::pair<int, bool>;
  struct RbcInstance {
    bool have_init = false;
    std::map<Payload, std::set<int>> echo_senders;
    std::map<Payload, std::set<int>> ready_senders;
    std::set<int> any_senders;  // dedupe_per_sender_ only
    bool sent_echo = false;
    bool sent_ready = false;
    bool delivered = false;
  };
  struct StepVotes {
    std::vector<std::pair<int, bool>> delivered;
    bool acted = false;
  };

  static std::uint64_t key_of(int originator, int round, int step) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(round))
            << 24) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(originator))
            << 4) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(step));
  }

  void rbc_broadcast(int step, int value, bool decide_flag,
                     sim::Outbox& out) {
    sim::Message m;
    m.round = round_;
    m.kind = kRbcInitKind;
    m.value = value;
    m.aux = pack_bracha_aux(id_, step, decide_flag);
    out.broadcast(m);
  }

  void handle_rbc(const sim::Message& m, int sender, sim::Outbox& out) {
    const BrachaAux aux = unpack_bracha_aux(m.aux);
    if (aux.step < 1 || aux.step > 3) return;
    if (m.value != 0 && m.value != 1) return;
    if (aux.originator < 0 || aux.originator >= n_) return;
    const std::uint64_t k = key_of(aux.originator, m.round, aux.step);
    RbcInstance& inst = instances_[k];
    const Payload payload{m.value, aux.decide_flag};
    switch (m.kind) {
      case kRbcInitKind:
        if (sender != aux.originator || inst.have_init) return;
        inst.have_init = true;
        if (!inst.sent_echo) {
          inst.sent_echo = true;
          sim::Message r = m;
          r.kind = kRbcEchoKind;
          out.broadcast(r);
        }
        break;
      case kRbcEchoKind:
        if (dedupe_per_sender_ && !inst.any_senders.insert(sender).second)
          return;
        if (!inst.echo_senders[payload].insert(sender).second) return;
        break;
      case kRbcReadyKind:
        if (dedupe_per_sender_ && !inst.any_senders.insert(sender).second)
          return;
        if (!inst.ready_senders[payload].insert(sender).second) return;
        break;
      default:
        return;
    }
    maybe_progress_instance(k, aux.originator, m.round, aux.step, out);
  }

  void maybe_progress_instance(std::uint64_t k, int originator, int round,
                               int step, sim::Outbox& out) {
    RbcInstance& inst = instances_[k];
    const int echo_threshold = (n_ + t_) / 2 + 1;
    for (const auto& [payload, echoes] : inst.echo_senders) {
      if (inst.sent_ready) break;
      if (static_cast<int>(echoes.size()) >= echo_threshold) {
        inst.sent_ready = true;
        send_ready(round, originator, step, payload, out);
      }
    }
    for (const auto& [payload, readies] : inst.ready_senders) {
      if (!inst.sent_ready && static_cast<int>(readies.size()) >= t_ + 1) {
        inst.sent_ready = true;
        send_ready(round, originator, step, payload, out);
      }
      if (!inst.delivered &&
          static_cast<int>(readies.size()) >= 2 * t_ + 1) {
        inst.delivered = true;
        step_votes_[{round, step}].delivered.emplace_back(payload.first,
                                                          payload.second);
      }
    }
  }

  static void send_ready(int round, int originator, int step,
                         const Payload& payload, sim::Outbox& out) {
    sim::Message r;
    r.round = round;
    r.kind = kRbcReadyKind;
    r.value = payload.first;
    r.aux = pack_bracha_aux(originator, step, payload.second);
    out.broadcast(r);
  }

  void try_advance(Rng& rng, sim::Outbox& out) {
    while (true) {
      auto it = step_votes_.find({round_, step_});
      if (it == step_votes_.end()) return;
      StepVotes& sv = it->second;
      if (sv.acted || static_cast<int>(sv.delivered.size()) < n_ - t_) return;
      sv.acted = true;
      finish_step(rng, out);
    }
  }

  void finish_step(Rng& rng, sim::Outbox& out) {
    const auto& got = step_votes_.at({round_, step_}).delivered;
    int count[2] = {0, 0};
    int flagged[2] = {0, 0};
    for (int i = 0; i < n_ - t_; ++i) {
      const auto& [v, flag] = got[static_cast<std::size_t>(i)];
      ++count[v];
      if (flag) ++flagged[v];
    }
    switch (step_) {
      case 1:
        if (count[0] > count[1]) x_ = 0;
        else if (count[1] > count[0]) x_ = 1;
        x_flag_ = false;
        step_ = 2;
        break;
      case 2:
        x_flag_ = false;
        for (int v = 0; v <= 1; ++v) {
          if (2 * count[v] > n_) {
            x_ = v;
            x_flag_ = true;
          }
        }
        step_ = 3;
        break;
      default: {
        int winner = kBot;
        for (int v = 0; v <= 1; ++v) {
          if (flagged[v] >= t_ + 1) winner = v;
        }
        if (winner != kBot && flagged[winner] >= 2 * t_ + 1) {
          if (output_ == kBot) output_ = winner;
          x_ = winner;
        } else if (winner != kBot) {
          x_ = winner;
        } else {
          x_ = rng.next_bool() ? 1 : 0;
        }
        x_flag_ = false;
        ++round_;
        step_ = 1;
        step_votes_.erase(step_votes_.begin(),
                          step_votes_.lower_bound({round_, 0}));
        break;
      }
    }
    rbc_broadcast(step_, x_, x_flag_, out);
  }

  int id_;
  int n_;
  int t_;
  int input_;
  int output_ = kBot;
  int round_ = 1;
  int step_ = 1;
  int x_;
  bool x_flag_ = false;
  bool dedupe_per_sender_;
  std::map<std::uint64_t, RbcInstance> instances_;
  std::map<std::pair<int, int>, StepVotes> step_votes_;
};

/// Random RBC traffic aimed mostly at the receiver's current round and
/// step, with each instance's payload mostly agreed so quorums form.
class RbcStreamGen {
 public:
  RbcStreamGen(int n, std::uint64_t seed) : n_(n), rng_(seed) {}

  /// One delivery, or std::nullopt for a reset.
  std::optional<sim::Envelope> next(int round, int step) {
    if (pick(1000) < 1) return std::nullopt;
    if (have_last_ && pick(100) < 8) return last_;  // a repeated sender
    sim::Envelope env;
    env.sender = static_cast<sim::ProcId>(pick(n_));
    env.receiver = 0;
    const std::uint64_t k = pick(100);
    env.payload.kind =
        k < 15 ? kRbcInitKind : (k < 40 ? kRbcEchoKind : kRbcReadyKind);
    int originator = static_cast<int>(pick(n_));
    if (env.payload.kind == kRbcInitKind && pick(100) < 75) {
      originator = env.sender;
    } else if (pick(100) < 3) {
      originator = n_ + static_cast<int>(pick(2));  // no such processor
    }
    env.payload.round = next_round(round);
    const std::uint64_t sp = pick(100);
    const int msg_step = sp < 75   ? step
                         : sp < 95 ? 1 + static_cast<int>(pick(3))
                                   : (pick(2) == 0 ? 0 : 4);
    // The instance's agreed payload, from a hash of its key: one value per
    // (round, step) that a fifth of the originators contradict, flagged in
    // step 3 and rarely before. A fifth of the messages (equivocators,
    // senders echoing two payloads) deviate from it.
    const std::uint64_t group = mix(env.payload.round, msg_step);
    const std::uint64_t inst = mix(group, originator);
    int value = static_cast<int>((group ^ (inst % 5 == 0 ? 1 : 0)) & 1);
    bool flag = msg_step == 3 ? inst % 4 != 0 : inst % 8 == 0;
    const std::uint64_t dv = pick(100);
    if (dv < 6) {
      value = kBot;
    } else if (dv < 14) {
      value = 1 - value;
    } else if (dv < 20) {
      flag = !flag;
    }
    env.payload.value = value;
    // Steps 0 and 4 do not pack; build their aux by hand.
    env.payload.aux =
        msg_step >= 1 && msg_step <= 3
            ? pack_bracha_aux(originator, msg_step, flag)
            : (originator << 3) | (msg_step << 1) | (flag ? 1 : 0);
    last_ = env;
    have_last_ = true;
    return env;
  }

  std::uint64_t pick(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(bound) - 1));
  }

 private:
  static std::uint64_t mix(std::uint64_t h, int x) {
    h = (h ^ static_cast<std::uint32_t>(x)) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 29);
  }

  std::int32_t next_round(int cur) {
    const std::uint64_t r = pick(100);
    if (r < 78) return cur;
    if (r < 86) return cur + 1;
    if (r < 91) return cur - 1 - static_cast<int>(pick(2));
    if (r < 93) return cur + 2 + static_cast<int>(pick(1000));
    if (r < 95) return INT_MAX;
    if (r < 97) return INT_MIN;
    return -1;
  }

  int n_;
  Rng rng_;
  sim::Envelope last_;
  bool have_last_ = false;
};

struct RbcCoverage {
  int step_advances = 0;  ///< calls after which the agreement step moved
  int decisions = 0;      ///< streams in which the reference decided
  int resets = 0;
};

::testing::AssertionResult same_bracha_state(const BrachaProcess& real,
                                             const RefBracha& ref,
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
  if (a.size() != b.size() ||
      real_out.broadcast_runs() != ref_out.broadcast_runs())
    return ::testing::AssertionFailure()
           << "staged " << a.size() << " vs " << b.size() << " items";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].to != b[i].to || !(a[i].msg == b[i].msg))
      return ::testing::AssertionFailure() << "staged item " << i;
  }
  if (real_rng.next_u64() != ref_rng.next_u64())
    return ::testing::AssertionFailure() << "rng streams diverged";
  return ::testing::AssertionSuccess();
}

/// Feed one seeded stream of `envelopes` deliveries to a fresh
/// real/reference pair (processor 0 of n, input 1), one envelope per
/// on_receive call or in random runs through on_receive_batch, comparing
/// after every call.
/// Returns the first mismatch, or "" if there was none.
std::string run_rbc_stream(int n, int t, bool dedupe_per_sender,
                           std::uint64_t seed, bool batched, int envelopes,
                           RbcCoverage& cov) {
  BrachaProcess real(0, n, t, 1);
  RefBracha ref(0, n, t, 1, dedupe_per_sender);
  sim::Outbox real_out(n);
  sim::Outbox ref_out(n);
  Rng real_rng(seed * 7919 + 1);
  Rng ref_rng(seed * 7919 + 1);
  RbcStreamGen gen(n, seed);
  real.on_start(real_out);
  ref.on_start(ref_out);
  auto same = same_bracha_state(real, ref, real_out, ref_out, real_rng,
                                ref_rng);
  if (!same) return same.message();
  real_out.clear();
  ref_out.clear();

  bool decided = false;
  std::vector<sim::Envelope> run;
  std::vector<const sim::Envelope*> ptrs;
  for (int fed = 0; fed < envelopes; fed += static_cast<int>(run.size())) {
    const std::pair<int, int> before{ref.round(), ref.step()};
    const std::size_t want = batched ? 1 + gen.pick(8) : 1;
    run.clear();
    bool reset = false;
    while (run.size() < want) {
      std::optional<sim::Envelope> env = gen.next(ref.round(), ref.step());
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
    same = same_bracha_state(real, ref, real_out, ref_out, real_rng, ref_rng);
    if (!same) {
      return std::string(same.message()) + " (seed " + std::to_string(seed) +
             ", envelope " + std::to_string(fed + 1) +
             (batched ? ", batched)" : ")");
    }
    if (!reset && std::pair{ref.round(), ref.step()} != before)
      ++cov.step_advances;
    decided = decided || ref.output() != kBot;
    real_out.clear();
    ref_out.clear();
  }
  if (decided) ++cov.decisions;
  return "";
}

TEST(BrachaDifferential, FlatRecordsMatchMapSetReference) {
  for (const auto& [n, t] : {std::pair{4, 1}, std::pair{7, 2}}) {
    for (const bool batched : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " t=" + std::to_string(t) +
                   (batched ? " batched" : " per-envelope"));
      RbcCoverage cov;
      for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const std::string diff =
            run_rbc_stream(n, t, false, seed, batched, 8000, cov);
        ASSERT_EQ(diff, "");
      }
      // The streams must actually exercise the paths under test.
      EXPECT_GT(cov.step_advances, 300);
      EXPECT_GE(cov.decisions, 3);
      EXPECT_GT(cov.resets, 50);
    }
  }
}

TEST(BrachaDifferential, CatchesDedupingPerSenderOnly) {
  // Counting a sender once per instance, not once per (kind, payload),
  // must make the streams diverge from the flat records.
  RbcCoverage cov;
  int caught = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    if (!run_rbc_stream(4, 1, true, seed, false, 8000, cov).empty()) ++caught;
  }
  EXPECT_EQ(caught, 4);
}

}  // namespace
}  // namespace aa::protocols
