#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace wakeup::util {

namespace {
thread_local ThreadPool* tl_worker_pool = nullptr;
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
  tl_worker_pool = this;
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
  if (threads_.empty()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t total = end - begin;
  // A few chunks per worker balances load without flooding the queue.
  const std::size_t chunks =
      chunk > 0 ? (total + chunk - 1) / chunk : std::min(total, threads_.size() * 4);
  const std::size_t chunk_size = (total + chunks - 1) / chunks;

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;
  std::exception_ptr first_error;

  {
    std::lock_guard lock(mutex_);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * chunk_size;
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + chunk_size);
      ++remaining;
      tasks_.push([&, lo, hi] {
        std::exception_ptr err;
        try {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        } catch (...) {
          err = std::current_exception();
        }
        std::lock_guard done_lock(done_mutex);
        if (err && !first_error) first_error = err;
        if (--remaining == 0) done_cv.notify_all();
      });
    }
  }
  cv_.notify_all();

  std::unique_lock done_lock(done_mutex);
  done_cv.wait(done_lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::default_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw : 1;
}

ThreadPool* ThreadPool::current() noexcept { return tl_worker_pool; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool instance(default_workers());
  return instance;
}

}  // namespace wakeup::util
