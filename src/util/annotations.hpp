// Clang thread-safety annotations + annotated synchronization wrappers.
//
// The parallel engine's determinism story (util/thread_pool.hpp, file
// comment) depends on a small amount of lock discipline: pool queues and
// task-group completion counters are mutex-guarded, and a missed lock there turns "bit-identical at any
// thread count" into a data race. Clang's -Wthread-safety analysis can
// prove the discipline at compile time — but only for lock types that
// carry capability attributes, which libstdc++'s std::mutex does not.
//
// This header therefore provides two things:
//
//   1. AA_* annotation macros — thin wrappers over clang's thread-safety
//      attributes that expand to nothing on other compilers, so annotated
//      code stays portable (gcc builds see plain classes).
//   2. Annotated synchronization types — Mutex (an AA_CAPABILITY over
//      std::mutex), MutexLock (an AA_SCOPED_CAPABILITY over
//      std::unique_lock with explicit unlock()), and CondVar (a
//      std::condition_variable that waits on a MutexLock). Code using
//      these gets the full analysis; the CI Werror job compiles the
//      library with clang and -Wthread-safety promoted to an error.
//
// Annotation cheat sheet (see the clang ThreadSafetyAnalysis docs):
//   AA_GUARDED_BY(mu)   — data member readable/writable only with mu held
//   AA_REQUIRES(mu)     — function callable only with mu already held
//   AA_ACQUIRE()/AA_RELEASE() — function acquires/releases the capability
//
// Wait-predicate idiom: clang analyzes lambda bodies as separate
// functions, so the usual `cv.wait(lock, [this]{ return guarded_; })`
// reads a guarded member from a context the analysis cannot see holds the
// lock. Annotated code writes the loop explicitly instead:
//
//   MutexLock lock(mu_);
//   while (!guarded_) cv_.wait(lock);   // reads checked against mu_
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define AA_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define AA_TS_ATTRIBUTE(x)  // no-op off clang
#endif

#define AA_CAPABILITY(x) AA_TS_ATTRIBUTE(capability(x))
#define AA_SCOPED_CAPABILITY AA_TS_ATTRIBUTE(scoped_lockable)
#define AA_GUARDED_BY(x) AA_TS_ATTRIBUTE(guarded_by(x))
#define AA_REQUIRES(...) AA_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define AA_ACQUIRE(...) AA_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define AA_RELEASE(...) AA_TS_ATTRIBUTE(release_capability(__VA_ARGS__))

namespace aa {

/// std::mutex carrying clang capability attributes so AA_GUARDED_BY /
/// AA_REQUIRES declarations against it are enforced by -Wthread-safety.
class AA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AA_ACQUIRE() { m_.lock(); }
  void unlock() AA_RELEASE() { m_.unlock(); }

  /// The wrapped mutex, for interop (CondVar waits through it).
  [[nodiscard]] std::mutex& native() noexcept { return m_; }

 private:
  std::mutex m_;
};

/// RAII lock over Mutex, understood by the analysis as a scoped
/// capability. Backed by std::unique_lock so CondVar can wait on it;
/// unlock() supports the early-release pattern (rethrow outside the lock).
class AA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AA_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() AA_RELEASE() = default;  // unique_lock unlocks if still held

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Release before end of scope (the destructor then does nothing).
  void unlock() AA_RELEASE() { lock_.unlock(); }

  /// The wrapped unique_lock, for CondVar interop only.
  [[nodiscard]] std::unique_lock<std::mutex>& native() noexcept {
    return lock_;
  }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable waiting on a MutexLock. Deliberately predicate-free:
/// callers write the wait loop themselves (see the file comment) so every
/// guarded-member read sits in a scope the analysis can check.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically release `lock`, wait, reacquire. From the analysis's view
  /// the capability is held across the call — which matches what the
  /// caller may assume before and after.
  void wait(MutexLock& lock) { cv_.wait(lock.native()); }

 private:
  std::condition_variable cv_;
};

}  // namespace aa
