#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace aa {
namespace {

TEST(ParallelConfig, ResolvesThreadCounts) {
  EXPECT_EQ(ParallelConfig{}.resolved_threads(), 1);
  EXPECT_EQ((ParallelConfig{.threads = 3}).resolved_threads(), 3);
  EXPECT_GE((ParallelConfig{.threads = 0}).resolved_threads(), 1);
  EXPECT_EQ((ParallelConfig{.threads = -5}).resolved_threads(), 1);
}

TEST(ParallelForChunks, ChunkingDependsOnlyOnTotalAndChunkSize) {
  // 100 items in chunks of 32 → 4 chunks, whatever the thread count says.
  for (const int threads : {1, 2, 8}) {
    const ParallelConfig cfg{.threads = threads, .chunk_size = 32};
    EXPECT_EQ(chunk_count(100, cfg), 4);
    EXPECT_EQ(chunk_count(0, cfg), 0);
    EXPECT_EQ(chunk_count(1, cfg), 1);
    EXPECT_EQ(chunk_count(32, cfg), 1);
    EXPECT_EQ(chunk_count(33, cfg), 2);
  }
}

TEST(ParallelForChunks, CoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (WorkerPool* p : {static_cast<WorkerPool*>(nullptr), &pool}) {
    for (const ParallelConfig cfg :
         {ParallelConfig{.threads = 4, .chunk_size = 7},
          ParallelConfig{.threads = 4, .chunk_size = 1},
          ParallelConfig{.threads = 1, .chunk_size = 5}}) {
      const std::int64_t total = 95;
      std::vector<std::atomic<int>> visits(static_cast<std::size_t>(total));
      parallel_for_chunks(
          total, cfg,
          [&](int, std::int64_t begin, std::int64_t end) {
            for (std::int64_t i = begin; i < end; ++i) {
              ++visits[static_cast<std::size_t>(i)];
            }
          },
          p);
      for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    }
  }
}

TEST(ParallelForChunks, ChunkIndexMatchesRange) {
  WorkerPool pool(4);
  const ParallelConfig cfg{.threads = 4, .chunk_size = 10};
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges(
      static_cast<std::size_t>(chunk_count(42, cfg)));
  parallel_for_chunks(
      42, cfg,
      [&](int ci, std::int64_t begin, std::int64_t end) {
        ranges[static_cast<std::size_t>(ci)] = {begin, end};
      },
      &pool);
  ASSERT_EQ(ranges.size(), 5u);
  for (std::size_t ci = 0; ci < ranges.size(); ++ci) {
    EXPECT_EQ(ranges[ci].first, static_cast<std::int64_t>(ci) * 10);
    EXPECT_EQ(ranges[ci].second,
              std::min<std::int64_t>(42, (static_cast<std::int64_t>(ci) + 1) * 10));
    // chunk_range is the same partition, for callers that schedule the
    // chunks themselves (the campaign's cross-cell job list).
    const ChunkRange r = chunk_range(static_cast<int>(ci), 42, cfg);
    EXPECT_EQ(r.begin, ranges[ci].first);
    EXPECT_EQ(r.end, ranges[ci].second);
  }
}

TEST(ParallelForChunks, NullPoolRunsInlineInChunkOrder) {
  // No pool means serial semantics whatever cfg.threads says: every chunk
  // on the calling thread, in ascending chunk order.
  const ParallelConfig cfg{.threads = 8, .chunk_size = 3};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  parallel_for_chunks(
      20, cfg,
      [&](int ci, std::int64_t, std::int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(ci);
      },
      nullptr);
  std::vector<int> expected(static_cast<std::size_t>(chunk_count(20, cfg)));
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForChunks, PropagatesBodyException) {
  WorkerPool pool(4);
  const ParallelConfig cfg{.threads = 4, .chunk_size = 1};
  for (WorkerPool* p : {static_cast<WorkerPool*>(nullptr), &pool}) {
    EXPECT_THROW(parallel_for_chunks(
                     16, cfg,
                     [](int ci, std::int64_t, std::int64_t) {
                       if (ci == 7) throw std::runtime_error("chunk 7");
                     },
                     p),
                 std::runtime_error);
  }
}

TEST(ParallelForChunks, SkipsChunksNotStartedAfterAThrow) {
  // A campaign is one job list; an error in one cell must end the sweep,
  // not run every other cell first. Chunk 1 holds its thread until chunk 0
  // has thrown and a little longer, so the error is recorded before the
  // next chunk starts.
  WorkerPool pool(1);
  const ParallelConfig cfg{.threads = 2, .chunk_size = 1};
  std::atomic<bool> thrown{false};
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for_chunks(
                   1000, cfg,
                   [&](int ci, std::int64_t, std::int64_t) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     if (ci == 0) {
                       thrown.store(true);
                       throw std::runtime_error("chunk 0");
                     }
                     if (ci == 1) {
                       while (!thrown.load()) std::this_thread::yield();
                       std::this_thread::sleep_for(
                           std::chrono::milliseconds(20));
                     }
                   },
                   &pool),
               std::runtime_error);
  EXPECT_LT(ran.load(), 100);
}

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, RunsEverySubmittedJob) {
  WorkerPool pool(4);
  WorkerPool::TaskGroup group(pool);
  std::atomic<int> hits{0};
  for (int i = 0; i < 200; ++i) {
    group.submit([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(hits.load(), 200);
}

TEST(WorkerPool, GroupsTrackCompletionIndependently) {
  // Two groups sharing one pool: each wait() sees only its own jobs done.
  WorkerPool pool(3);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  WorkerPool::TaskGroup ga(pool);
  WorkerPool::TaskGroup gb(pool);
  for (int i = 0; i < 50; ++i) {
    ga.submit([&a] { a.fetch_add(1, std::memory_order_relaxed); });
    gb.submit([&b] { b.fetch_add(1, std::memory_order_relaxed); });
  }
  ga.wait();
  EXPECT_EQ(a.load(), 50);
  gb.wait();
  EXPECT_EQ(b.load(), 50);
}

TEST(WorkerPool, ReusableAcrossManyBatches) {
  // The campaign pattern: one long-lived pool, a fresh group per check.
  WorkerPool pool(4);
  for (int round = 0; round < 20; ++round) {
    WorkerPool::TaskGroup group(pool);
    std::atomic<int> hits{0};
    for (int i = 0; i < 16; ++i) {
      group.submit([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
    EXPECT_EQ(hits.load(), 16);
  }
}

TEST(WorkerPool, WorkerIndexIdentifiesPoolThreads) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.worker_index(), -1);  // the submitting thread is off-pool
  // Every observed worker index is a valid scratch slot. The caller (which
  // helps execute in wait()) reports -1; pool workers report [0, size()).
  std::mutex mu;
  std::vector<int> seen;
  WorkerPool::TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.submit([&] {
      const int idx = pool.worker_index();
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(idx);
    });
  }
  group.wait();
  ASSERT_EQ(seen.size(), 64u);
  for (const int idx : seen) {
    EXPECT_GE(idx, -1);
    EXPECT_LT(idx, pool.size());
  }
}

TEST(WorkerPool, WaitRethrowsFirstError) {
  WorkerPool pool(2);
  WorkerPool::TaskGroup group(pool);
  for (int i = 0; i < 8; ++i) {
    group.submit([i] {
      if (i == 3) throw std::runtime_error("job 3");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
}

}  // namespace
}  // namespace aa
