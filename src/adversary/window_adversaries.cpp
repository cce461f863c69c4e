#include "adversary/window_adversaries.hpp"

#include <utility>

#include "protocols/reset_agreement.hpp"
#include "util/check.hpp"

namespace aa::adversary {

namespace {

void fill_all_senders(int n, std::vector<sim::ProcId>& order) {
  order.clear();
  for (sim::ProcId s = 0; s < n; ++s) order.push_back(s);
}

}  // namespace

// ---------------------------------------------------------------- fair ----

void FairWindowAdversary::fill_static(int n, sim::WindowPlan& plan) {
  for (auto& order : plan.delivery_order) fill_all_senders(n, order);
}

// ------------------------------------------------------------ silencer ----

SilencerWindowAdversary::SilencerWindowAdversary(
    std::vector<sim::ProcId> silenced)
    : silenced_(std::move(silenced)) {}

void SilencerWindowAdversary::prepare_static(int n, int /*t*/) {
  is_silenced_.assign(static_cast<std::size_t>(n), false);
  for (sim::ProcId p : silenced_) {
    AA_REQUIRE(p >= 0 && p < n, "silencer: bad processor id");
    is_silenced_[static_cast<std::size_t>(p)] = true;
  }
}

void SilencerWindowAdversary::fill_static(int n, sim::WindowPlan& plan) {
  if (is_silenced_.size() != static_cast<std::size_t>(n)) {
    prepare_static(n, 0);  // driven outside run_acceptable_window
  }
  for (auto& order : plan.delivery_order) {
    order.clear();
    for (sim::ProcId s = 0; s < n; ++s) {
      if (!is_silenced_[static_cast<std::size_t>(s)]) order.push_back(s);
    }
  }
}

// -------------------------------------------------------------- random ----

RandomWindowAdversary::RandomWindowAdversary(int t, double reset_prob, Rng rng)
    : t_(t), reset_prob_(reset_prob), rng_(rng) {
  AA_REQUIRE(t >= 0, "random adversary: t must be non-negative");
  AA_REQUIRE(reset_prob >= 0.0 && reset_prob <= 1.0,
             "random adversary: reset_prob out of [0,1]");
}

sim::PlanDecision RandomWindowAdversary::plan_window_into(
    const sim::Execution& exec, const sim::WindowBatch& /*batch*/,
    sim::WindowPlan& plan) {
  const int n = exec.n();
  plan.reset(n);
  for (int i = 0; i < n; ++i) {
    std::vector<sim::ProcId>& ids =
        plan.delivery_order[static_cast<std::size_t>(i)];
    fill_all_senders(n, ids);
    // Fisher–Yates shuffle, then keep a random (n − t)-prefix as S_i.
    for (std::size_t j = 0; j + 1 < ids.size(); ++j) {
      const std::size_t k = j + rng_.uniform_index(ids.size() - j);
      std::swap(ids[j], ids[k]);
    }
    ids.resize(static_cast<std::size_t>(n - t_));
  }
  for (sim::ProcId p = 0; p < n; ++p) {
    if (static_cast<int>(plan.resets.size()) >= t_) break;
    if (!exec.crashed(p) && rng_.bernoulli(reset_prob_)) plan.resets.push_back(p);
  }
  return sim::PlanDecision::kUpdated;
}

// --------------------------------------------------------- reset storm ----

ResetStormAdversary::ResetStormAdversary(int t, Rng rng) : t_(t), rng_(rng) {
  AA_REQUIRE(t >= 0, "reset storm: t must be non-negative");
}

sim::PlanDecision ResetStormAdversary::plan_window_into(
    const sim::Execution& exec, const sim::WindowBatch& /*batch*/,
    sim::WindowPlan& plan) {
  const int n = exec.n();
  plan.reset(n);
  for (auto& order : plan.delivery_order) fill_all_senders(n, order);
  fill_all_senders(n, ids_);
  for (int i = 0; i < t_ && i < n; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        rng_.uniform_index(ids_.size() - static_cast<std::size_t>(i));
    std::swap(ids_[static_cast<std::size_t>(i)], ids_[j]);
    if (!exec.crashed(ids_[static_cast<std::size_t>(i)]))
      plan.resets.push_back(ids_[static_cast<std::size_t>(i)]);
  }
  return sim::PlanDecision::kUpdated;
}

// -------------------------------------------------------- split keeper ----

void balance_votes_into(
    const std::vector<std::tuple<sim::ProcId, int, int>>& votes,
    BalanceScratch& sc, std::vector<sim::ProcId>& out) {
  // Bucket by round as the votes stream in: each distinct round owns a
  // (zeros, ones) queue pair, filled in arrival order — exactly the
  // grouping the old sort-by-(round, arrival) produced, without the sort.
  sc.rounds.clear();
  std::uint32_t used = 0;
  for (const auto& [sender, round, value] : votes) {
    AA_CHECK(value == 0 || value == 1, "balance_votes: non-bit vote");
    // Rounds arrive mostly ascending, so scan for the insertion point from
    // the back; the distinct-round count per window is tiny.
    std::size_t k = sc.rounds.size();
    while (k > 0 && sc.rounds[k - 1].first > round) --k;
    BalanceScratch::Bucket* bucket;
    if (k > 0 && sc.rounds[k - 1].first == round) {
      bucket = &sc.buckets[sc.rounds[k - 1].second];
    } else {
      if (used == sc.buckets.size()) sc.buckets.emplace_back();
      const std::uint32_t bi = used++;
      sc.buckets[bi].zeros.clear();
      sc.buckets[bi].ones.clear();
      sc.rounds.insert(sc.rounds.begin() + static_cast<std::ptrdiff_t>(k),
                       {round, bi});
      bucket = &sc.buckets[bi];
    }
    (value == 0 ? bucket->zeros : bucket->ones).push_back(sender);
  }
  for (const auto& [round, bi] : sc.rounds) {
    (void)round;
    const BalanceScratch::Bucket& bucket = sc.buckets[bi];
    // Strict alternation starting with the MAJORITY value, so that any
    // prefix of length L contains at most ⌈L/2⌉ of either value.
    std::size_t zi = 0;
    std::size_t oi = 0;
    bool turn_zero = bucket.zeros.size() >= bucket.ones.size();
    while (zi < bucket.zeros.size() || oi < bucket.ones.size()) {
      if (turn_zero && zi < bucket.zeros.size())
        out.push_back(bucket.zeros[zi++]);
      else if (!turn_zero && oi < bucket.ones.size())
        out.push_back(bucket.ones[oi++]);
      else if (zi < bucket.zeros.size())
        out.push_back(bucket.zeros[zi++]);
      else
        out.push_back(bucket.ones[oi++]);
      turn_zero = !turn_zero;
    }
  }
}

std::vector<sim::ProcId> balance_votes(
    const std::vector<std::tuple<sim::ProcId, int, int>>& votes) {
  BalanceScratch sc;
  std::vector<sim::ProcId> order;
  order.reserve(votes.size());
  balance_votes_into(votes, sc, order);
  return order;
}

bool SplitKeeperAdversary::broadcast_shaped(const sim::WindowBatch& batch) {
  // Every run whole broadcasts, and run starts ascending with the sender
  // id — then id order is sender order for every receiver.
  sim::MsgId last = sim::kNoMsg;
  for (sim::ProcId s = 0; s < batch.n(); ++s) {
    const int k = batch.broadcast_runs(s);
    if (k < 0) return false;
    if (k == 0) continue;
    const sim::MsgId start = batch.from_to(s, 0).front();
    if (start < last) return false;
    last = start;
  }
  return true;
}

void SplitKeeperAdversary::classify(const sim::Envelope& env) {
  if (env.payload.kind == protocols::kVoteKind &&
      (env.payload.value == 0 || env.payload.value == 1)) {
    votes_.emplace_back(env.sender, env.payload.round, env.payload.value);
  } else {
    non_votes_.push_back(env.sender);
  }
}

void SplitKeeperAdversary::build_row(int n, std::vector<sim::ProcId>& order) {
  balance_votes_into(votes_, balance_, order);
  // Append senders of non-vote messages and everyone who sent nothing so
  // that S_i = [n] (the split-keeper never silences anyone — only the
  // delivery ORDER is adversarial).
  const std::uint64_t epoch = ++epoch_;
  for (sim::ProcId s : order) present_[static_cast<std::size_t>(s)] = epoch;
  for (sim::ProcId s : non_votes_) {
    if (present_[static_cast<std::size_t>(s)] != epoch) {
      present_[static_cast<std::size_t>(s)] = epoch;
      order.push_back(s);
    }
  }
  for (sim::ProcId s = 0; s < n; ++s) {
    if (present_[static_cast<std::size_t>(s)] != epoch) order.push_back(s);
  }
}

sim::PlanDecision SplitKeeperAdversary::plan_window_into(
    const sim::Execution& exec, const sim::WindowBatch& batch,
    sim::WindowPlan& plan) {
  const int n = exec.n();
  plan.reset(n);
  if (present_.size() != static_cast<std::size_t>(n)) {
    present_.assign(static_cast<std::size_t>(n), 0);
  }

  if (broadcast_shaped(batch)) {
    // Every receiver's window messages are the same broadcast sequence
    // (sender ascending, then broadcast order), so read one envelope per
    // broadcast, balance once, and hand every receiver the same row.
    votes_.clear();
    non_votes_.clear();
    for (sim::ProcId s = 0; s < n; ++s) {
      for (const sim::MsgId id : batch.from_to(s, 0)) {
        classify(batch.envelope(id));
      }
    }
    std::vector<sim::ProcId>& first = plan.delivery_order[0];
    build_row(n, first);
    for (std::size_t i = 1; i < plan.delivery_order.size(); ++i) {
      plan.delivery_order[i].assign(first.begin(), first.end());
    }
    return sim::PlanDecision::kUpdated;
  }

  // General path, per receiver: its window messages in id order (senders
  // in publication order, each sender's messages in send order), votes
  // split from everything else.
  for (int i = 0; i < n; ++i) {
    votes_.clear();
    non_votes_.clear();
    for (const sim::ProcId s : batch.senders()) {
      for (const sim::MsgId id : batch.from_to(s, i)) {
        classify(batch.envelope(id));
      }
    }
    build_row(n, plan.delivery_order[static_cast<std::size_t>(i)]);
  }
  return sim::PlanDecision::kUpdated;
}

// ------------------------------------------------- replan every window ----

ReplanEveryWindow::ReplanEveryWindow(
    std::unique_ptr<sim::WindowAdversary> inner)
    : inner_(std::move(inner)) {
  AA_REQUIRE(inner_ != nullptr, "replan-every-window: null inner adversary");
}

void ReplanEveryWindow::prepare(int n, int t) {
  t_ = t;
  inner_->prepare(n, t);
}

sim::PlanDecision ReplanEveryWindow::plan_window_into(
    const sim::Execution& exec, const sim::WindowBatch& batch,
    sim::WindowPlan& plan) {
  // Re-preparing clears the inner adversary's plan cache, so this call is
  // guaranteed to refill the plan from scratch — the pre-reuse behaviour.
  inner_->prepare(exec.n(), t_);
  inner_->plan_window_into(exec, batch, plan);
  return sim::PlanDecision::kUpdated;
}

}  // namespace aa::adversary
