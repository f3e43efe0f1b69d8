#pragma once

/// \file thread_pool.hpp
/// Small fixed-size worker pool for running independent simulation trials.
///
/// Determinism contract: callers must derive each work item's randomness
/// from (seed, item-index) via `util::hash_words`, never from thread
/// identity, so results are identical for any worker count (including 0,
/// which runs inline on the calling thread).

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wakeup::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means "execute submitted work inline".
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Runs fn(i) for i in [begin, end), blocking until all items finish.
  /// Work is dealt in contiguous chunks of `chunk` items (0: a few chunks
  /// per worker); exceptions propagate to the caller (the first one thrown
  /// wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t chunk = 0);

  /// A reasonable default worker count for this machine.
  [[nodiscard]] static std::size_t default_workers() noexcept;

  /// The pool whose worker is executing the calling thread, or nullptr on
  /// any non-worker thread.  Lets nested dispatch (a task that itself
  /// wants a pool) detect it is already inside one and run inline instead
  /// of deadlocking on its own queue.
  [[nodiscard]] static ThreadPool* current() noexcept;

  /// Process-wide shared pool with default_workers() workers, constructed
  /// on first use.  `sim::Run` parallelizes multi-trial specs on it when
  /// the caller passes no pool of their own.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  bool stop_ = false;
};

}  // namespace wakeup::util
