#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"

namespace wakeup::util {

namespace {

/// One parallel_for call, shared by its caller and its helper tasks.
///
/// Chunks are claimed from `next`; whoever claims chunk c runs it, so a
/// claimed chunk is always running on a live thread.  The caller waits
/// only for `finished` to reach `chunks` after it has claimed everything
/// it could, i.e. only for chunks running on other threads.
///
/// Why nested calls cannot deadlock: a thread blocks only in the wait
/// above, and only on a chunk of its own job that another thread is
/// running.  If that thread blocks too, it waits on a job it created
/// inside that chunk, so every wait edge points from a job to a job
/// created strictly later, inside one of its chunks.  A cycle would need
/// two jobs each created inside a chunk of the other, which is
/// impossible; every chain of waits ends at a thread that is running
/// code, and the chain unwinds from there.  Queued helpers never block
/// anyone: a caller does not wait for a helper to start.
///
/// A helper that dequeues after the call returned keeps the job alive
/// through its shared_ptr, finds every chunk claimed, and never touches
/// `fn` (which may be gone by then).
struct Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t b, std::size_t e,
      std::size_t size)
      : fn(&f), begin(b), end(e), chunk_size(size), chunks((e - b + size - 1) / size) {}

  const std::function<void(std::size_t)>* fn;
  const std::size_t begin;
  const std::size_t end;
  const std::size_t chunk_size;
  const std::size_t chunks;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;  ///< guarded by `mutex`

  /// Claims and runs chunks until none is left.
  void drain() {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed); c < chunks;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        const std::lock_guard lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        const std::lock_guard lock(mutex);
        done_cv.notify_all();
      }
    }
  }

  /// Blocks until every chunk has finished, then rethrows the first error.
  void wait() {
    std::unique_lock lock(mutex);
    done_cv.wait(lock, [this] { return finished.load(std::memory_order_acquire) == chunks; });
    if (first_error) std::rethrow_exception(first_error);
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn, std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  // A few chunks per worker balances load without flooding the queue.
  const std::size_t chunks =
      chunk > 0 ? (total + chunk - 1) / chunk : std::min(total, threads_.size() * 4);
  if (threads_.empty() || chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const auto job = std::make_shared<Job>(fn, begin, end, (total + chunks - 1) / chunks);

  const std::size_t helpers = std::min(threads_.size(), job->chunks - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) tasks_.push([job] { job->drain(); });
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  if (obs::active()) {
    static const auto c_helpers = obs::Counter::get("pool.helpers");
    c_helpers.add(helpers);
  }

  job->drain();
  job->wait();
}

std::size_t ThreadPool::default_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool instance(default_workers());
  return instance;
}

}  // namespace wakeup::util
