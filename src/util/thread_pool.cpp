#include "util/thread_pool.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace aa {

int ParallelConfig::resolved_threads() const noexcept {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
  }
  return std::max(1, threads);
}

int chunk_count(std::int64_t total, const ParallelConfig& cfg) {
  if (total <= 0) return 0;
  const std::int64_t chunk = std::max(1, cfg.chunk_size);
  const std::int64_t count = (total + chunk - 1) / chunk;
  AA_REQUIRE(count <= std::numeric_limits<int>::max(),
             "chunk_count: too many chunks — use a larger chunk_size");
  return static_cast<int>(count);
}

ChunkRange chunk_range(int ci, std::int64_t total, const ParallelConfig& cfg) {
  const std::int64_t chunk = std::max(1, cfg.chunk_size);
  const std::int64_t begin = static_cast<std::int64_t>(ci) * chunk;
  return {begin, std::min(total, begin + chunk)};
}

namespace {

/// Identity of the pool-worker thread this is, if any. Keyed per pool so
/// nested/multiple pools never alias each other's worker indices.
thread_local const WorkerPool* tl_pool = nullptr;
thread_local int tl_worker_index = -1;

}  // namespace

WorkerPool::WorkerPool(int threads) {
  AA_REQUIRE(threads >= 1, "WorkerPool: need at least one worker");
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int WorkerPool::worker_index() const noexcept {
  return tl_pool == this ? tl_worker_index : -1;
}

void WorkerPool::TaskGroup::submit(std::function<void()> job) {
  {
    MutexLock lock(mu_);
    ++outstanding_;
  }
  WorkerPool& p = pool_;
  {
    MutexLock lock(p.mu_);
    AA_REQUIRE(!p.stopping_, "WorkerPool: submit after shutdown");
    p.queue_.push_back(Job{std::move(job), this});
  }
  p.work_ready_.notify_one();
}

void WorkerPool::TaskGroup::wait() {
  // Help execute this group's queued jobs; once none are queued the rest
  // are in flight on workers, so block until they finish.
  for (;;) {
    Job job;
    {
      MutexLock lock(pool_.mu_);
      std::deque<Job>& q = pool_.queue_;
      const auto it = std::find_if(
          q.begin(), q.end(), [this](const Job& j) { return j.group == this; });
      if (it != q.end()) {
        job = std::move(*it);
        q.erase(it);
      }
    }
    if (job.group != nullptr) {
      pool_.run_job(job);
      continue;
    }
    MutexLock lock(mu_);
    while (outstanding_ != 0) done_.wait(lock);
    if (first_error_) {
      std::exception_ptr e = first_error_;
      first_error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(e);
    }
    return;
  }
}

WorkerPool::TaskGroup::~TaskGroup() {
  // The pool holds raw pointers to this group while jobs are in flight;
  // never let it dangle, even if the caller skipped wait().
  MutexLock lock(mu_);
  while (outstanding_ != 0) done_.wait(lock);
}

void WorkerPool::worker_loop(int index) {
  tl_pool = this;
  tl_worker_index = index;
  for (;;) {
    Job job;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) work_ready_.wait(lock);
      if (queue_.empty()) return;  // stopping_ with a drained queue
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

void WorkerPool::run_job(Job& job) {
  std::exception_ptr error;
  if (!job.group->failed_.load(std::memory_order_relaxed)) {
    try {
      job.fn();
    } catch (...) {
      error = std::current_exception();
    }
  }
  finish_job(job.group, std::move(error));
}

void WorkerPool::finish_job(TaskGroup* group, std::exception_ptr error) {
  // Notify while still holding the lock: once outstanding_ reaches 0 the
  // waiter may return and destroy the group (and its CondVar) as soon as
  // it can take mu_, so nothing may touch the group after the unlock.
  MutexLock lock(group->mu_);
  if (error && !group->first_error_) {
    group->first_error_ = std::move(error);
    group->failed_.store(true, std::memory_order_relaxed);
  }
  if (--group->outstanding_ == 0) group->done_.notify_all();
}

void parallel_for_chunks(
    std::int64_t total, const ParallelConfig& cfg,
    const std::function<void(int, std::int64_t, std::int64_t)>& body,
    WorkerPool* pool) {
  const int chunks = chunk_count(total, cfg);
  if (chunks == 0) return;
  const auto run_chunk = [&](int ci) {
    const ChunkRange r = chunk_range(ci, total, cfg);
    body(ci, r.begin, r.end);
  };
  // Serial semantics: no pool, one thread asked for, or one chunk — run
  // inline and in order, no pool traffic at all.
  if (pool == nullptr || cfg.resolved_threads() <= 1 || chunks == 1) {
    for (int ci = 0; ci < chunks; ++ci) run_chunk(ci);
    return;
  }
  WorkerPool::TaskGroup group(*pool);
  for (int ci = 0; ci < chunks; ++ci) {
    group.submit([&run_chunk, ci] { run_chunk(ci); });
  }
  group.wait();
}

}  // namespace aa
