// Annotated synchronization primitives for the few places the codebase
// shares mutable state across threads.
//
// osumac::Mutex is a zero-overhead wrapper over std::mutex that carries the
// Clang capability attribute, so members declared GUARDED_BY(mu_) are
// statically checked under -Wthread-safety (libstdc++'s std::mutex has no
// such attribute, which would silence the analysis).  osumac::MutexLock is
// the matching RAII guard.
//
// The concurrency model stays deliberately simple (docs/STATIC_ANALYSIS.md):
// almost everything is thread-confined — each SweepRunner worker owns its
// whole Cell, so the simulator core needs no locks at all.  A Mutex appears
// only where an object can outlive or span that confinement: the sweep
// worker pool's shared slots (src/exp/runner.cc) and the obs endpoints a
// future multi-threaded Network may share (MetricsRegistry, EventTrace,
// FlightRecorder).
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace osumac {

/// A std::mutex with the Clang "mutex" capability attribute.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { impl_.lock(); }
  void Unlock() RELEASE() { impl_.unlock(); }

  // BasicLockable spellings so CondVar (std::condition_variable_any) can
  // release/reacquire the capability inside Wait.  Annotated like their
  // capitalized twins, so analyzed callers still balance.
  void lock() ACQUIRE() { impl_.lock(); }
  void unlock() RELEASE() { impl_.unlock(); }

 private:
  std::mutex impl_;
};

/// Condition variable over osumac::Mutex.  Wait() must be called with the
/// mutex held; like std::condition_variable it releases the mutex while
/// blocked and reacquires before returning (the release/reacquire happens
/// inside the standard library, outside -Wthread-safety's view, so the
/// caller's lock set is unchanged across the call).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mutex) REQUIRES(mutex) { impl_.wait(mutex); }

  template <typename Predicate>
  void Wait(Mutex& mutex, Predicate done) REQUIRES(mutex) {
    impl_.wait(mutex, std::move(done));
  }

  void NotifyAll() { impl_.notify_all(); }

 private:
  std::condition_variable_any impl_;
};

/// RAII guard: acquires on construction, releases on destruction.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() RELEASE() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace osumac
