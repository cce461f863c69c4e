// Worker-thread pool and deterministic work sharding for the trial engines.
//
// One pool type (WorkerPool, long-lived, shared across every check
// of a campaign) and one sharding entry point (parallel_for_chunks, which
// runs inline when given no pool). Parallel Monte-Carlo rests on two
// invariants:
//
//  1. Per-trial independence — trial i draws every bit of randomness from
//     its own Rng(seed0 + i) stream (util/rng.hpp), so trials can run on
//     any thread in any order without perturbing each other.
//  2. Thread-count-independent merging — work is split into FIXED-SIZE
//     chunks whose boundaries depend only on (total, chunk_size), never on
//     the worker count, and per-chunk partial results are merged serially
//     in chunk order. Any reduction — even a floating-point one — is
//     therefore identical for 1, 2, or 64 threads, making reports
//     bit-identical at any thread count.
//
// The pool reads no clock and runs no background thread of its own: the
// campaign's per-cell timeout is a deadline its chunk body checks at chunk
// start (core/campaign.cpp), so a whole sweep is one parallel_for_chunks
// call over (cell, chunk) jobs.
//
// Lock discipline is statically checked: every mutex-guarded member below
// carries AA_GUARDED_BY (util/annotations.hpp), so a clang build with
// -Wthread-safety — the CI Werror job — proves at compile time that no
// access slips outside its lock. A TSan CI job (cmake -DAA_SANITIZE=thread) checks the same claims
// dynamically on the concurrency-heavy tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace aa {

/// Sharding knob threaded through the trial engines (checker, exhaustive,
/// benches).
struct ParallelConfig {
  /// Worker threads: 1 runs everything inline on the calling thread
  /// (serial semantics, no pool), 0 means one worker per hardware thread,
  /// n > 1 means exactly n workers.
  int threads = 1;
  /// Work items per chunk. Chunk boundaries — and therefore the merge
  /// order of partial results — are a function of (total, chunk_size)
  /// alone, which is what keeps results independent of `threads`.
  int chunk_size = 32;

  /// `threads` with 0 resolved to the hardware concurrency (≥ 1).
  [[nodiscard]] int resolved_threads() const noexcept;
};

/// Number of chunks parallel_for_chunks will produce for `total` items.
/// Throws if the count does not fit in int (raise chunk_size instead).
[[nodiscard]] int chunk_count(std::int64_t total, const ParallelConfig& cfg);

/// Items [begin, end) of chunk `ci` of that partition — the range
/// parallel_for_chunks hands to body(ci, begin, end).
struct ChunkRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};
[[nodiscard]] ChunkRange chunk_range(int ci, std::int64_t total,
                                     const ParallelConfig& cfg);

/// Long-lived worker pool for campaign-scale workloads: one pool is
/// created per campaign (core::CampaignContext) and shared across every
/// check it runs, instead of a spawn/join cycle per check (the overhead
/// that flattened the benches' parallel speedup to ~1x).
///
/// Design:
///   * One mutex-protected FIFO job queue. Jobs are coarse chunks, so the
///     workers rarely contend for the lock, and a free worker always takes
///     the oldest job: uneven job costs (trials that decide in 3 windows
///     next to trials that run 50k) never leave a worker idle while jobs
///     wait.
///   * Completion is tracked per TaskGroup, not per pool: many callers can
///     share one pool (sequentially or concurrently) and each waits only
///     for its own jobs.
///   * TaskGroup::wait() has the calling thread help execute its group's
///     jobs instead of blocking, so a campaign driver thread is a worker
///     too.
///   * Determinism is unaffected: scheduling only decides WHERE a chunk
///     runs; parallel_for_chunks still merges per-chunk partials in chunk
///     order (see the file comment's invariant 2).
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Index of the calling pool-worker thread in [0, size()), or -1 when the
  /// caller is not one of THIS pool's workers (e.g. the submitting thread).
  /// Per-worker scratch (core::CampaignContext) is keyed on this.
  [[nodiscard]] int worker_index() const noexcept;

  /// Tracks completion of one batch of jobs on a shared pool.
  class TaskGroup {
   public:
    explicit TaskGroup(WorkerPool& pool) : pool_(pool) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueue a job onto the pool, accounted to this group.
    void submit(std::function<void()> job);

    /// Run pool jobs on the calling thread until every job submitted to
    /// THIS group has finished, then rethrow the first exception any of
    /// them raised. Once a job has thrown, the group's jobs that have not
    /// started yet are skipped: the error ends the batch anyway.
    void wait();

   private:
    friend class WorkerPool;

    WorkerPool& pool_;
    Mutex mu_;
    CondVar done_;
    std::exception_ptr first_error_ AA_GUARDED_BY(mu_);
    std::size_t outstanding_ AA_GUARDED_BY(mu_) = 0;
    /// Raised with first_error_; read lock-free before each job starts.
    /// Relaxed suffices: it only lets later jobs skip, and wait() learns
    /// the error itself under mu_.
    std::atomic<bool> failed_{false};
  };

 private:
  struct Job {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void worker_loop(int index);
  void run_job(Job& job);
  static void finish_job(TaskGroup* group, std::exception_ptr error);

  std::vector<std::thread> workers_;  ///< written in the ctor only

  Mutex mu_;  ///< guards the queue (cheap: jobs are coarse chunks)
  CondVar work_ready_;
  std::deque<Job> queue_ AA_GUARDED_BY(mu_);
  bool stopping_ AA_GUARDED_BY(mu_) = false;
};

/// Partition [0, total) into chunk_count(total, cfg) fixed chunks and call
/// `body(chunk_index, begin, end)` once per chunk. With a null `pool`, a
/// config that resolves to one thread, or a single chunk, every chunk runs
/// inline on the calling thread in chunk order. Otherwise the chunks are
/// submitted to `pool` as one TaskGroup and the caller helps execute until
/// they are done; many threads may call this on one pool concurrently
/// (each call waits only for its own chunks). Distinct chunks may run
/// concurrently, so `body` must not touch another chunk's state. Rethrows
/// the first exception any chunk raised; chunks that have not started by
/// then are skipped, inline or pooled.
void parallel_for_chunks(
    std::int64_t total, const ParallelConfig& cfg,
    const std::function<void(int, std::int64_t, std::int64_t)>& body,
    WorkerPool* pool);

}  // namespace aa
