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
  buffer_.set_trace(cfg_.lens);
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
  published_.clear();
  run_envs_.clear();
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
  buffer_.set_trace(cfg_.lens);
  if (cfg_.lens != nullptr) cfg_.lens->begin_trial(n_);
  for (ProcId p = 0; p < n_; ++p) {
    procs_[static_cast<std::size_t>(p)]->on_start(
        staged_[static_cast<std::size_t>(p)]);
  }
}

std::span<const MsgId> Execution::sending_step(ProcId p) {
  AA_REQUIRE(p >= 0 && p < n_, "sending_step: bad proc id");
  record(StepKind::Send, p);
  published_.clear();
  if (crashed_[static_cast<std::size_t>(p)]) return published_;
  Outbox& out = staged_[static_cast<std::size_t>(p)];
  // Complete-response semantics: an empty outbox means the step is a no-op.
  const auto& items = out.items();
  const std::size_t m = items.size();
  if (m == 0) return published_;
  const MsgId first = buffer_.add_batch(
      p, items, window_, chain_[static_cast<std::size_t>(p)] + 1);
  if (cfg_.lens != nullptr) cfg_.lens->on_publish(p, items, window_);
  published_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    published_[i] = first + static_cast<MsgId>(i);
  }
  if (scratch_.collect_window != window_) {
    out.clear();
    return published_;
  }

  // Window collection armed: fold this step's receiver grouping into the
  // incremental pair index. Ids are assigned in staging order, so the
  // stable grouping preserves per-pair send order — appending sender rows
  // in step order reproduces the old counting-sort layout exactly.
  WindowScratch& sc = scratch_;
  AA_CHECK(sc.row_stamp[static_cast<std::size_t>(p)] != sc.batch_epoch,
           "sending_step: one non-empty publication per sender per "
           "collected window");
  out.index_by_receiver(sc.sort_begin, sc.sort_order);
  sc.batch.insert(sc.batch.end(), published_.begin(), published_.end());
  const auto base = static_cast<std::int32_t>(sc.pair_ids.size());
  const std::size_t row =
      static_cast<std::size_t>(p) * (static_cast<std::size_t>(n_) + 1);
  for (std::size_t r = 0; r <= static_cast<std::size_t>(n_); ++r) {
    sc.pair_begin[row + r] = base + sc.sort_begin[r];
  }
  sc.pair_ids.resize(static_cast<std::size_t>(base) + m);
  for (std::size_t j = 0; j < m; ++j) {
    sc.pair_ids[static_cast<std::size_t>(base) + j] =
        first + static_cast<MsgId>(sc.sort_order[j]);
  }
  sc.row_stamp[static_cast<std::size_t>(p)] = sc.batch_epoch;
  sc.bcast_runs[static_cast<std::size_t>(p)] = out.broadcast_runs();
  for (std::size_t r = 0; r < static_cast<std::size_t>(n_); ++r) {
    const std::int32_t c = sc.sort_begin[r + 1] - sc.sort_begin[r];
    if (c == 0) continue;
    if (sc.rcv_stamp[r] == sc.batch_epoch) {
      sc.rcv_total[r] += c;
    } else {
      sc.rcv_stamp[r] = sc.batch_epoch;
      sc.rcv_total[r] = c;
    }
  }
  out.clear();
  return published_;
}

void Execution::begin_window_batch() {
  WindowScratch& sc = scratch_;
  const auto n = static_cast<std::size_t>(n_);
  // deliver_plan_row walks the receiver's whole pending list, so the batch
  // must be everything the buffer holds.
  AA_CHECK(buffer_.pending_count() == 0,
           "begin_window_batch: messages are already pending");
  if (sc.row_stamp.size() != n) {
    sc.row_stamp.assign(n, 0);
    sc.rcv_stamp.assign(n, 0);
    sc.rcv_total.assign(n, 0);
    sc.bcast_runs.assign(n, 0);
    sc.member_stamp.assign(n, 0);
    sc.seg_begin.assign(n, 0);
    sc.seg_end.assign(n, 0);
    sc.pair_begin.assign(n * (n + 1), 0);
  }
  sc.batch.clear();
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
  AA_CHECK(buffer_.is_pending(id), "receiving_step: message not pending");
  // Copy: mark_delivered retires the arena slot this reference points into.
  const Envelope env = buffer_.get(id);
  const ProcId p = env.receiver;
  AA_CHECK(!crashed_[static_cast<std::size_t>(p)],
           "receiving_step: delivery to a crashed processor");
  record(StepKind::Receive, p, id);
  buffer_.mark_delivered(id);
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
  const WindowBatch batch(&sc, n_);

  // One pass over the row: stamp membership, lay out one output segment
  // per sender in plan order (seg_begin = start, seg_end = the walk's
  // cursor) and total the covered messages. Repeated senders deliver
  // nothing more.
  std::int32_t covered = 0;
  const std::uint64_t member_epoch = ++sc.member_epoch;
  for (const ProcId s : row) {
    AA_REQUIRE(s >= 0 && s < n_, "deliver_plan_row: sender id out of range");
    const auto si = static_cast<std::size_t>(s);
    if (sc.member_stamp[si] == member_epoch) continue;
    sc.member_stamp[si] = member_epoch;
    sc.seg_begin[si] = covered;
    sc.seg_end[si] = covered;
    const std::int32_t c = batch.count(s, receiver);
    covered += c;
  }
  if (covered == 0) return 0;  // row senders published nothing to receiver

  // Retire the whole run in one walk of the receiver's pending list,
  // scattering each view into its sender's segment — list order within a
  // sender is send order, so the output is plan order. A full cover (row ⊇
  // every sender with messages) needs no membership test; a partial cover
  // filters by the stamped row.
  const bool full = covered == batch.count_to(receiver);
  run_envs_.resize(static_cast<std::size_t>(covered));
  const int delivered = buffer_.deliver_window_run_to(
      receiver, full ? nullptr : sc.member_stamp.data(), member_epoch,
      run_envs_, sc.seg_end.data());
  if (delivered == 0) return 0;
  if (delivered != covered) close_segment_gaps(row);
  const std::span<const Envelope* const> run(
      run_envs_.data(), static_cast<std::size_t>(delivered));

  std::int64_t& chain = chain_[static_cast<std::size_t>(receiver)];
  for (const Envelope* env : run) {
    record(StepKind::Receive, receiver, env->id);
    if (cfg_.lens != nullptr) cfg_.lens->on_deliver(*env, window_, steps_);
    if (env->chain > chain) chain = env->chain;
  }
  const int out_before = procs_[static_cast<std::size_t>(receiver)]->output();
  procs_[static_cast<std::size_t>(receiver)]->on_receive_batch(
      run, rngs_[static_cast<std::size_t>(receiver)],
      staged_[static_cast<std::size_t>(receiver)]);
  check_output_write_once(receiver, out_before);
  return delivered;
}

void Execution::close_segment_gaps(std::span<const ProcId> row) {
  // Some covered messages were delivered earlier in this window, so their
  // segments ended short: slide the filled part of every segment down, in
  // row order. Each segment is emptied once copied, so a repeated sender
  // copies nothing.
  WindowScratch& sc = scratch_;
  std::size_t out = 0;
  for (const ProcId s : row) {
    const auto si = static_cast<std::size_t>(s);
    for (auto i = static_cast<std::size_t>(sc.seg_begin[si]);
         i < static_cast<std::size_t>(sc.seg_end[si]); ++i) {
      run_envs_[out++] = run_envs_[i];
    }
    sc.seg_begin[si] = sc.seg_end[si];
  }
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
  if (audit_due()) audit();
  buffer_.drop_pending();
  ++window_;
}

bool Execution::audit_due() const {
  // Every-window auditing wins; otherwise sample the boundary of every
  // audit_every'th window. The predicate depends only on the config and
  // the window index, so sampled audits are deterministic per trial.
  if (cfg_.audit) return true;
  return cfg_.audit_every > 0 && window_ % cfg_.audit_every == 0;
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
  for (const std::uint64_t s : scratch_.row_stamp) {
    AA_CHECK(s <= scratch_.batch_epoch, "audit: row_stamp from the future");
  }
  for (const std::uint64_t s : scratch_.rcv_stamp) {
    AA_CHECK(s <= scratch_.batch_epoch, "audit: rcv_stamp from the future");
  }
  for (const std::uint64_t s : scratch_.member_stamp) {
    AA_CHECK(s <= scratch_.member_epoch,
             "audit: member_stamp from the future");
  }
  for (const std::uint64_t s : scratch_.stamp) {
    AA_CHECK(s <= scratch_.epoch, "audit: plan-validation stamp from the future");
  }
  AA_CHECK(scratch_.collect_window <= window_,
           "audit: batch collection armed for a future window");
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
