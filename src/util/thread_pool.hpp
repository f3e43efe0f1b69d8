#pragma once

/// \file thread_pool.hpp
/// Small fixed-size worker pool with one nestable `parallel_for`.
///
/// A `parallel_for` call cuts its range into chunks that are claimed from
/// one shared counter.  It queues at most min(workers, chunks - 1) helper
/// tasks; each helper claims chunks until none is left, and so does the
/// calling thread, which then waits only for the chunks that helpers
/// claimed.  Any thread may call `parallel_for`, a pool worker inside a
/// chunk included: a nested call fans its chunks onto whichever workers
/// are idle and runs the rest itself, so a sweep's cells and each cell's
/// trials share one pool without deadlock or oversubscription.
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
  /// per worker).  The caller runs chunks too; a 0-worker pool, or a range
  /// that makes one chunk, runs every item inline, in order, and the first
  /// exception stops it.  Otherwise every chunk runs even when one throws,
  /// and the first exception caught is rethrown to the caller.  No fn call
  /// starts after this returns.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t chunk = 0);

  /// A reasonable default worker count for this machine.
  [[nodiscard]] static std::size_t default_workers() noexcept;

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
