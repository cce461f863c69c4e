#include "sim/execution.hpp"

#include <algorithm>

#include "lens/trace.hpp"
#include "util/check.hpp"

namespace aa::sim {

Execution::Execution(std::vector<std::unique_ptr<Process>> procs,
                     std::uint64_t seed, ExecutionConfig cfg)
    : n_(static_cast<int>(procs.size())),
      cfg_(cfg),
      procs_(std::move(procs)),
      buffer_(n_),
      crashed_(static_cast<std::size_t>(n_), false),
      resets_(static_cast<std::size_t>(n_), 0),
      chain_(static_cast<std::size_t>(n_), 0) {
  AA_REQUIRE(n_ > 0, "Execution: need at least one processor");
  Rng root(seed);
  rngs_.reserve(static_cast<std::size_t>(n_));
  staged_.reserve(static_cast<std::size_t>(n_));
  for (ProcId p = 0; p < n_; ++p) {
    AA_REQUIRE(procs_[static_cast<std::size_t>(p)] != nullptr,
               "Execution: null process");
    rngs_.push_back(root.fork(static_cast<std::uint64_t>(p)));
    staged_.emplace_back(n_);
  }
  if (cfg_.lens != nullptr) cfg_.lens->begin_trial(n_);
  for (ProcId p = 0; p < n_; ++p) {
    procs_[static_cast<std::size_t>(p)]->on_start(
        staged_[static_cast<std::size_t>(p)]);
  }
}

void Execution::reset(std::vector<std::unique_ptr<Process>> procs,
                      std::uint64_t seed, ExecutionConfig cfg) {
  const int n = static_cast<int>(procs.size());
  AA_REQUIRE(n > 0, "Execution::reset: need at least one processor");
  const bool same_n = n == n_;
  n_ = n;
  cfg_ = cfg;
  procs_ = std::move(procs);
  buffer_.reset(n);
  Rng root(seed);
  rngs_.clear();
  rngs_.reserve(static_cast<std::size_t>(n));
  if (!same_n) {
    staged_.clear();
    staged_.reserve(static_cast<std::size_t>(n));
  }
  for (ProcId p = 0; p < n_; ++p) {
    AA_REQUIRE(procs_[static_cast<std::size_t>(p)] != nullptr,
               "Execution::reset: null process");
    rngs_.push_back(root.fork(static_cast<std::uint64_t>(p)));
    if (same_n) {
      staged_[static_cast<std::size_t>(p)].clear();
    } else {
      staged_.emplace_back(n);
    }
  }
  crashed_.assign(static_cast<std::size_t>(n), false);
  resets_.assign(static_cast<std::size_t>(n), 0);
  chain_.assign(static_cast<std::size_t>(n), 0);
  decisions_.clear();
  events_.clear();
  // Scratch arrays keep their (epoch-stamped) contents; only the run-scoped
  // bookkeeping must forget the previous trial. collect_window = -1 disarms
  // batch collection (window_ restarts at 0), and clearing the planner
  // forces run_acceptable_window to re-prepare whatever adversary shows up.
  scratch_.collect_window = -1;
  scratch_.planner = nullptr;
  scratch_.planner_t = -1;
  scratch_.plan_validated = false;
  scratch_.plan_liveness_epoch = -1;
  window_ = 0;
  steps_ = 0;
  total_resets_ = 0;
  liveness_epoch_ = 0;
  crashed_count_ = 0;
  if (cfg_.lens != nullptr) cfg_.lens->begin_trial(n_);
  for (ProcId p = 0; p < n_; ++p) {
    procs_[static_cast<std::size_t>(p)]->on_start(
        staged_[static_cast<std::size_t>(p)]);
  }
}

MsgIdRange Execution::sending_step(ProcId p) {
  AA_REQUIRE(p >= 0 && p < n_, "sending_step: bad proc id");
  record(StepKind::Send, p);
  if (crashed_[static_cast<std::size_t>(p)]) return {};
  Outbox& out = staged_[static_cast<std::size_t>(p)];
  // Complete-response semantics: an empty outbox means the step is a no-op.
  const std::size_t m = out.message_count();
  if (m == 0) return {};
  if (scratch_.collect_window == window_) return publish_run(p, out);

  // Outside a collected window (the async model): publish into the arena,
  // one slot per message, so broadcast items expand first.
  out.expand();
  const auto& items = out.items();
  const MsgId first = buffer_.add_batch(
      p, items, window_, chain_[static_cast<std::size_t>(p)] + 1);
  if (cfg_.lens != nullptr) cfg_.lens->on_publish(p, items, window_);
  out.clear();
  return MsgIdRange::strided(first, 1, m);
}

MsgIdRange Execution::publish_run(ProcId p, Outbox& out) {
  WindowScratch& sc = scratch_;
  const auto ps = static_cast<std::size_t>(p);
  SenderRun& run = sc.runs[ps];
  AA_CHECK(run.stamp != sc.batch_epoch,
           "sending_step: one non-empty publication per sender per "
           "collected window");
  const std::vector<StagedMessage>& items = out.items();
  const std::size_t m = out.message_count();
  const MsgId first = buffer_.claim_ids(m);
  if (cfg_.lens != nullptr) cfg_.lens->on_publish(p, items, window_);
  run.stamp = sc.batch_epoch;
  run.broadcast_runs = out.broadcast_runs();

  // A broadcast run needs no index (copy j to r is id first + j·n + r). A
  // point run writes the sender's row of the pair index with one stable
  // counting sort by receiver: count into the row, turn the counts into
  // segment ends, then scatter the ids back to front so each segment
  // start is where its cursor stops. Ids follow staging order, so every
  // pair keeps send order. Outbox::send keeps every receiver in [0, n).
  // The first point run sizes the index, so an execution that only
  // broadcasts never allocates it.
  if (run.broadcast_runs < 0) {
    const auto base = static_cast<std::int32_t>(sc.pair_ids.size());
    const auto n = static_cast<std::size_t>(n_);
    if (sc.pair_begin.size() < n * (n + 1)) sc.pair_begin.resize(n * (n + 1));
    std::int32_t* row = &sc.pair_begin[ps * (n + 1)];
    std::fill(row, row + n + 1, 0);
    for (const StagedMessage& item : items) ++row[item.to];
    std::int32_t end = base;
    for (std::size_t r = 0; r <= n; ++r) {
      end += row[r];
      row[r] = end;
    }
    sc.pair_ids.resize(static_cast<std::size_t>(base) + m);
    for (std::size_t j = m; j-- > 0;) {
      sc.pair_ids[static_cast<std::size_t>(--row[items[j].to])] =
          first + static_cast<MsgId>(j);
    }
  }

  // The staged vector becomes the sender's run: a swap, not a copy.
  run.first = first;
  run.chain = chain_[ps] + 1;
  out.take(run.items);
  sc.run_order.push_back(p);
  const std::size_t published = sc.batch.size() + m;
  sc.batch = MsgIdRange::strided(sc.base, 1, published);
  sc.delivered.resize(published, 0);
  return MsgIdRange::strided(first, 1, m);
}

void Execution::begin_window_batch() {
  WindowScratch& sc = scratch_;
  const auto n = static_cast<std::size_t>(n_);
  // The window store must start empty: nothing pending in the arena and
  // no earlier window left unswept.
  AA_CHECK(buffer_.pending_count() == 0,
           "begin_window_batch: messages are already pending");
  // Runs kept from earlier windows carry older stamps: stale after the bump.
  sc.runs.resize(n);
  sc.base = static_cast<MsgId>(buffer_.total_sent());
  sc.batch = MsgIdRange::strided(sc.base, 1, 0);
  sc.run_order.clear();
  sc.delivered.clear();
  sc.window_delivered = 0;
  sc.pair_ids.clear();
  ++sc.batch_epoch;
  sc.collect_window = window_;
}

WindowBatch Execution::window_batch() const {
  AA_CHECK(scratch_.collect_window == window_,
           "window_batch: no batch collected for the current window");
  return WindowBatch(&scratch_, n_);
}

void Execution::receiving_step(MsgId id) {
  WindowScratch& sc = scratch_;
  const bool in_window =
      sc.collect_window == window_ && id >= sc.base &&
      id < sc.base + static_cast<MsgId>(sc.batch.size());
  Envelope env;
  if (in_window) {
    env = WindowBatch(&sc, n_).envelope(id);
    AA_CHECK(sc.delivered[static_cast<std::size_t>(id - sc.base)] == 0,
             "receiving_step: message not pending");
  } else {
    AA_CHECK(buffer_.is_pending(id), "receiving_step: message not pending");
    // Copy: mark_delivered retires the arena slot this reference points
    // into.
    env = buffer_.get(id);
  }
  const ProcId p = env.receiver;
  AA_CHECK(!crashed_[static_cast<std::size_t>(p)],
           "receiving_step: delivery to a crashed processor");
  record(StepKind::Receive, p, id);
  if (in_window) {
    sc.delivered[static_cast<std::size_t>(id - sc.base)] = 1;
    ++sc.window_delivered;
    buffer_.retire_claimed(1, 0);
  } else {
    buffer_.mark_delivered(id);
  }
  if (cfg_.lens != nullptr) cfg_.lens->on_deliver(env, window_, steps_);
  chain_[static_cast<std::size_t>(p)] =
      std::max(chain_[static_cast<std::size_t>(p)], env.chain);
  const int out_before = procs_[static_cast<std::size_t>(p)]->output();
  procs_[static_cast<std::size_t>(p)]->on_receive(
      env, rngs_[static_cast<std::size_t>(p)],
      staged_[static_cast<std::size_t>(p)]);
  check_output_write_once(p, out_before);
}

int Execution::deliver_plan_row(ProcId receiver, std::span<const ProcId> row) {
  AA_REQUIRE(receiver >= 0 && receiver < n_, "deliver_plan_row: bad receiver");
  AA_CHECK(!crashed_[static_cast<std::size_t>(receiver)],
           "deliver_plan_row: delivery to a crashed processor");
  WindowScratch& sc = scratch_;
  AA_CHECK(sc.collect_window == window_,
           "deliver_plan_row: no batch collected for the current window");
  // Size the run, rejecting a bad row before any message is consumed.
  const WindowBatch batch(&sc, n_);
  std::size_t total = 0;
  for (const ProcId s : row) {
    AA_REQUIRE(s >= 0 && s < n_, "deliver_plan_row: sender id out of range");
    total += static_cast<std::size_t>(batch.count(s, receiver));
  }
  if (total == 0) return 0;  // the row's senders sent this receiver nothing
  if (run_envelopes_.size() < total) {
    run_envelopes_.resize(total);
    run_ptrs_.resize(total);
    for (std::size_t i = 0; i < total; ++i) run_ptrs_[i] = &run_envelopes_[i];
  }

  // Gather the run in plan order: for each row sender, its messages to
  // this receiver (send order), skipping those already delivered this
  // window — which is also what makes a repeated sender deliver nothing
  // more. A broadcast run's envelopes come straight from its items (copy j
  // to r sits at offset j·n + r); a point run's through the pair index.
  const auto n = static_cast<std::size_t>(n_);
  const auto r = static_cast<std::size_t>(receiver);
  std::int64_t& chain = chain_[r];
  std::size_t k = 0;
  for (const ProcId s : row) {
    const auto si = static_cast<std::size_t>(s);
    const SenderRun& run = sc.runs[si];
    if (run.stamp != sc.batch_epoch) continue;
    const std::size_t before = k;
    const auto emit = [&](std::size_t off, const Message& msg) {
      std::uint8_t& done = sc.delivered[off];
      if (done != 0) return;
      done = 1;
      Envelope& env = run_envelopes_[k++];
      env.id = sc.base + static_cast<MsgId>(off);
      env.sender = s;
      env.receiver = receiver;
      env.payload = msg;
      env.window = window_;
      env.chain = run.chain;
    };
    const auto run_off = static_cast<std::size_t>(run.first - sc.base);
    if (run.broadcast_runs > 0) {
      std::size_t off = run_off + r;
      for (const StagedMessage& item : run.items) {
        emit(off, item.msg);
        off += n;
      }
    } else {
      const std::int32_t* seg = &sc.pair_begin[si * (n + 1) + r];
      for (std::int32_t j = seg[0]; j < seg[1]; ++j) {
        const auto off = static_cast<std::size_t>(
            sc.pair_ids[static_cast<std::size_t>(j)] - sc.base);
        emit(off, run.items[off - run_off].msg);
      }
    }
    if (k > before && run.chain > chain) chain = run.chain;
  }
  if (k == 0) return 0;
  sc.window_delivered += k;
  buffer_.retire_claimed(k, 0);

  // Without an event log or a lens, a receiving step only counts.
  if (!cfg_.record_events && cfg_.lens == nullptr) {
    steps_ += static_cast<std::int64_t>(k);
  } else {
    for (std::size_t i = 0; i < k; ++i) {
      const Envelope& env = run_envelopes_[i];
      record(StepKind::Receive, receiver, env.id);
      if (cfg_.lens != nullptr) cfg_.lens->on_deliver(env, window_, steps_);
    }
  }
  const int out_before = procs_[r]->output();
  procs_[r]->on_receive_batch(
      std::span<const Envelope* const>(run_ptrs_.data(), k), rngs_[r],
      staged_[r]);
  check_output_write_once(receiver, out_before);
  return static_cast<int>(k);
}

void Execution::resetting_step(ProcId p) {
  AA_REQUIRE(p >= 0 && p < n_, "resetting_step: bad proc id");
  AA_CHECK(!crashed_[static_cast<std::size_t>(p)],
           "resetting_step: cannot reset a crashed processor");
  record(StepKind::Reset, p);
  ++liveness_epoch_;
  const int out_before = procs_[static_cast<std::size_t>(p)]->output();
  procs_[static_cast<std::size_t>(p)]->on_reset();
  check_output_write_once(p, out_before);
  // Erased memory cannot send: staged-but-unsent messages are lost too.
  staged_[static_cast<std::size_t>(p)].clear();
  ++resets_[static_cast<std::size_t>(p)];
  ++total_resets_;
}

void Execution::crash(ProcId p) {
  AA_REQUIRE(p >= 0 && p < n_, "crash: bad proc id");
  if (crashed_[static_cast<std::size_t>(p)]) return;
  record(StepKind::Crash, p);
  ++liveness_epoch_;
  crashed_[static_cast<std::size_t>(p)] = true;
  staged_[static_cast<std::size_t>(p)].clear();
  ++crashed_count_;
}

void Execution::end_window() {
  audit_if_due(window_);
  // The arena never crosses a window edge: window-model publication goes
  // through the window store, and the async model has no window edges.
  AA_CHECK(buffer_.pending_count() == buffer_.claimed_count(),
           "end_window: messages published outside a collected window are "
           "pending");
  WindowScratch& sc = scratch_;
  if (sc.collect_window == window_) {
    // Whatever the window did not deliver is dropped. Only the lens needs
    // to know which messages those were.
    const std::size_t dropped = sc.batch.size() - sc.window_delivered;
    if (cfg_.lens != nullptr && dropped > 0) {
      const auto n = static_cast<std::size_t>(n_);
      for (const ProcId s : sc.run_order) {
        const SenderRun& run = sc.runs[static_cast<std::size_t>(s)];
        const std::uint8_t* done = &sc.delivered[static_cast<std::size_t>(
            run.first - sc.base)];
        const bool bcast = run.broadcast_runs > 0;
        const std::size_t m = bcast ? run.items.size() * n : run.items.size();
        for (std::size_t j = 0; j < m; ++j) {
          if (done[j] != 0) continue;
          cfg_.lens->on_suppress(
              s, bcast ? static_cast<ProcId>(j % n) : run.items[j].to);
        }
      }
    }
    buffer_.retire_claimed(0, dropped);
    sc.collect_window = -1;
  }
  ++window_;
}

void Execution::audit_if_due(std::int64_t tick) const {
  // Every-tick auditing wins; otherwise sample every audit_every'th tick.
  // The predicate depends only on the config and the tick, so sampled
  // audits are deterministic per trial.
  if (cfg_.audit || (cfg_.audit_every > 0 && tick % cfg_.audit_every == 0)) {
    audit();
  }
}

void Execution::audit() const {
  buffer_.audit();

  // Liveness bookkeeping: the counters are denormalized views of the
  // per-processor arrays, and every crash/reset bumped the epoch exactly
  // once.
  int crashed = 0;
  std::int64_t resets = 0;
  for (ProcId p = 0; p < n_; ++p) {
    if (crashed_[static_cast<std::size_t>(p)]) ++crashed;
    const int r = resets_[static_cast<std::size_t>(p)];
    AA_CHECK(r >= 0, "audit: negative per-processor reset count");
    resets += r;
    AA_CHECK(chain_[static_cast<std::size_t>(p)] >= 0,
             "audit: negative chain depth");
    if (crashed_[static_cast<std::size_t>(p)]) {
      AA_CHECK(staged_[static_cast<std::size_t>(p)].empty(),
               "audit: crashed processor holds staged messages");
    }
  }
  AA_CHECK(crashed == crashed_count_,
           "audit: crashed_count disagrees with the crashed array");
  AA_CHECK(resets == total_resets_,
           "audit: total_resets disagrees with the per-processor counts");
  AA_CHECK(liveness_epoch_ == total_resets_ + crashed_count_,
           "audit: liveness epoch is not resets + crashes");

  // Write-once outputs: at most one decision per processor, each agreeing
  // with the live output bit and stamped inside the run so far; and every
  // written output has its decision record.
  std::vector<std::uint8_t> decided(static_cast<std::size_t>(n_), 0);
  for (const Decision& d : decisions_) {
    AA_CHECK(d.proc >= 0 && d.proc < n_, "audit: decision for a bad proc id");
    AA_CHECK(!decided[static_cast<std::size_t>(d.proc)],
             "audit: two decision records for one processor");
    decided[static_cast<std::size_t>(d.proc)] = 1;
    AA_CHECK(d.value == 0 || d.value == 1,
             "audit: decision value is not a bit");
    AA_CHECK(output(d.proc) == d.value,
             "audit: decision record disagrees with the output bit");
    AA_CHECK(d.window >= 0 && d.window <= window_,
             "audit: decision window outside the run");
    AA_CHECK(d.step >= 0 && d.step <= steps_,
             "audit: decision step outside the run");
  }
  for (ProcId p = 0; p < n_; ++p) {
    const int o = output(p);
    AA_CHECK(o == kBot || o == 0 || o == 1, "audit: output is not kBot/0/1");
    if (o != kBot) {
      AA_CHECK(decided[static_cast<std::size_t>(p)],
               "audit: written output without a decision record");
    }
  }

  // Epoch-stamp freshness: no scratch stamp may come from the future —
  // that is exactly the corruption the stamped-counter design would
  // silently misread as "valid this window".
  for (const SenderRun& run : scratch_.runs) {
    AA_CHECK(run.stamp <= scratch_.batch_epoch,
             "audit: window run stamp from the future");
  }
  for (const std::uint64_t s : scratch_.stamp) {
    AA_CHECK(s <= scratch_.epoch, "audit: plan-validation stamp from the future");
  }
  AA_CHECK(scratch_.collect_window <= window_,
           "audit: batch collection armed for a future window");
  if (scratch_.collect_window == window_) audit_window_store();
}

void Execution::audit_window_store() const {
  // The runs tile the window's id range in publication order, the delivered
  // bytes agree with their count, and the buffer holds exactly the
  // undelivered rest as claimed ids.
  const WindowScratch& sc = scratch_;
  AA_CHECK(sc.delivered.size() == sc.batch.size(),
           "audit: window store delivered flags do not cover the batch");
  MsgId next = sc.base;
  for (const ProcId s : sc.run_order) {
    AA_CHECK(s >= 0 && s < n_, "audit: window run of a bad sender");
    const auto si = static_cast<std::size_t>(s);
    const SenderRun& run = sc.runs[si];
    AA_CHECK(run.stamp == sc.batch_epoch,
             "audit: window run of a sender with a stale stamp");
    AA_CHECK(run.first == next && !run.items.empty(),
             "audit: window runs do not tile the window's ids");
    AA_CHECK(run.chain >= 1, "audit: window run with a bad chain stamp");
    const std::int32_t k = run.broadcast_runs;
    if (k > 0) {
      // A broadcast run: k kEveryone items, tiling k·n ids.
      AA_CHECK(run.items.size() == static_cast<std::size_t>(k),
               "audit: broadcast run length disagrees with its count");
      for (const StagedMessage& item : run.items) {
        AA_CHECK(item.to == kEveryone,
                 "audit: broadcast run holds a point message");
      }
      next += static_cast<MsgId>(k) * n_;
    } else {
      AA_CHECK(k == -1, "audit: window run of an unknown kind");
      for (const StagedMessage& item : run.items) {
        AA_CHECK(item.to >= 0 && item.to < n_,
                 "audit: window run message to a bad receiver");
      }
      // A point run's pair-index row lists each of its ids once, under
      // its receiver, ascending within a pair.
      const std::int32_t* row =
          &sc.pair_begin[si * (static_cast<std::size_t>(n_) + 1)];
      AA_CHECK(row[n_] - row[0] ==
                   static_cast<std::int32_t>(run.items.size()),
               "audit: point run's index row does not cover the run");
      for (ProcId r = 0; r < n_; ++r) {
        MsgId last = kNoMsg;
        for (std::int32_t j = row[r]; j < row[r + 1]; ++j) {
          const MsgId id = sc.pair_ids[static_cast<std::size_t>(j)];
          AA_CHECK(id > last && id >= run.first &&
                       id < run.first + static_cast<MsgId>(run.items.size()),
                   "audit: point run's index row lists a foreign id");
          AA_CHECK(run.items[static_cast<std::size_t>(id - run.first)].to == r,
                   "audit: point run's index row files an id under the "
                   "wrong receiver");
          last = id;
        }
      }
      next += static_cast<MsgId>(run.items.size());
    }
  }
  AA_CHECK(next == sc.base + static_cast<MsgId>(sc.batch.size()),
           "audit: window runs do not cover the batch");
  std::size_t delivered = 0;
  for (const std::uint8_t d : sc.delivered) delivered += d != 0 ? 1 : 0;
  AA_CHECK(delivered == sc.window_delivered,
           "audit: window delivered count disagrees with its flags");
  AA_CHECK(buffer_.claimed_count() == sc.batch.size() - delivered,
           "audit: claimed ids disagree with the undelivered window");
}

const Process& Execution::process(ProcId p) const {
  AA_REQUIRE(p >= 0 && p < n_, "process: bad proc id");
  return *procs_[static_cast<std::size_t>(p)];
}

bool Execution::crashed(ProcId p) const {
  AA_REQUIRE(p >= 0 && p < n_, "crashed: bad proc id");
  return crashed_[static_cast<std::size_t>(p)];
}

int Execution::reset_count(ProcId p) const {
  AA_REQUIRE(p >= 0 && p < n_, "reset_count: bad proc id");
  return resets_[static_cast<std::size_t>(p)];
}

std::int64_t Execution::chain_depth(ProcId p) const {
  AA_REQUIRE(p >= 0 && p < n_, "chain_depth: bad proc id");
  return chain_[static_cast<std::size_t>(p)];
}

bool Execution::has_staged(ProcId p) const {
  AA_REQUIRE(p >= 0 && p < n_, "has_staged: bad proc id");
  return !staged_[static_cast<std::size_t>(p)].empty();
}

bool Execution::any_staged() const {
  return std::any_of(staged_.begin(), staged_.end(),
                     [](const Outbox& out) { return !out.empty(); });
}

int Execution::output(ProcId p) const { return process(p).output(); }

std::optional<Decision> Execution::first_decision() const {
  if (decisions_.empty()) return std::nullopt;
  return decisions_.front();
}

bool Execution::outputs_agree() const {
  int seen = kBot;
  for (ProcId p = 0; p < n_; ++p) {
    const int o = output(p);
    if (o == kBot) continue;
    if (seen == kBot) seen = o;
    else if (seen != o) return false;
  }
  return true;
}

bool Execution::all_live_decided() const {
  for (ProcId p = 0; p < n_; ++p) {
    if (!crashed_[static_cast<std::size_t>(p)] && output(p) == kBot)
      return false;
  }
  return true;
}

void Execution::record(StepKind k, ProcId p, MsgId m) {
  ++steps_;
  if (cfg_.record_events) events_.push_back(Event{k, p, m, window_});
}

void Execution::check_output_write_once(ProcId p, int before) {
  const int after = procs_[static_cast<std::size_t>(p)]->output();
  if (before == after) return;
  AA_CHECK(before == kBot, "output bit is write-once but was rewritten");
  AA_CHECK(after == 0 || after == 1, "output bit must be 0 or 1");
  decisions_.push_back(Decision{p, after, window_, steps_,
                                chain_[static_cast<std::size_t>(p)]});
  if (cfg_.lens != nullptr) cfg_.lens->on_decision(p, window_, steps_);
}

}  // namespace aa::sim
