#include "common/parallel.h"

#include <algorithm>
#include <utility>

namespace osumac {

int ResolveParallelism(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelForIndex(int count, int jobs,
                      const std::function<void(int)>& fn) {
  TaskPool(std::min(ResolveParallelism(jobs), count)).Run(count, fn);
}

TaskPool::TaskPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_) - 1);
  for (int t = 1; t < threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  round_started_.NotifyAll();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::RunSlice(const std::function<void(int)>& fn, int count) {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    try {
      fn(i);
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
      stop_.store(true, std::memory_order_relaxed);
    }
  }
}

void TaskPool::WorkerLoop() {
  std::uint64_t seen_round = 0;
  while (true) {
    const std::function<void(int)>* fn = nullptr;
    int count = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && round_ == seen_round) round_started_.Wait(mu_);
      if (shutdown_) return;
      seen_round = round_;
      fn = round_fn_;
      count = round_count_;
    }
    RunSlice(*fn, count);
    bool last = false;
    {
      MutexLock lock(mu_);
      last = (--active_workers_ == 0);
    }
    if (last) round_done_.NotifyAll();
  }
}

void TaskPool::Run(int count, const std::function<void(int)>& fn) {
  if (count <= 0) return;
  if (threads_ <= 1 || count == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }

  next_.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    first_error_ = nullptr;
    round_fn_ = &fn;
    round_count_ = count;
    active_workers_ = static_cast<int>(workers_.size());
    ++round_;
  }
  round_started_.NotifyAll();

  RunSlice(fn, count);  // the caller works its own share

  std::exception_ptr error;
  {
    MutexLock lock(mu_);
    while (active_workers_ != 0) round_done_.Wait(mu_);
    round_fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace osumac
