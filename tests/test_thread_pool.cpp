#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace wu = wakeup::util;

TEST(ThreadPool, InlineWhenZeroWorkers) {
  wu::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<int> out(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, AllItemsExecutedOnce) {
  wu::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, RangeSubsets) {
  wu::ThreadPool pool(2);
  std::vector<int> out(50, 0);
  pool.parallel_for(10, 20, [&](std::size_t i) { out[i] = 1; });
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(out[i], (i >= 10 && i < 20) ? 1 : 0);
}

TEST(ThreadPool, EmptyRangeNoop) {
  wu::ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  // Determinism contract: per-index work writes to its own slot, so any
  // worker count yields identical output.
  auto run = [](std::size_t workers) {
    wu::ThreadPool pool(workers);
    std::vector<std::uint64_t> out(500);
    pool.parallel_for(0, 500, [&](std::size_t i) { out[i] = i * i + 7; });
    return out;
  };
  EXPECT_EQ(run(0), run(1));
  EXPECT_EQ(run(0), run(4));
}

TEST(ThreadPool, ExplicitChunkCoversEveryItemOnce) {
  wu::ThreadPool pool(3);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    std::vector<std::atomic<int>> counts(40);
    pool.parallel_for(0, 40, [&](std::size_t i) { counts[i].fetch_add(1); }, chunk);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1) << "chunk " << chunk;
  }
}

TEST(ThreadPool, ChunkOfOneDealsNeighboursToDifferentWorkers) {
  // The default dealing puts items 14 and 15 of 16 in one 2-item chunk on
  // a 2-worker pool; with chunk = 1 item 14 can wait for item 15 to start,
  // because another thread claims it.
  wu::ThreadPool pool(2);
  std::atomic<bool> last_started{false};
  std::atomic<bool> overlapped{false};
  pool.parallel_for(0, 16, [&](std::size_t i) {
    if (i == 15) last_started = true;
    if (i != 14) return;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!last_started && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    overlapped = last_started.load();
  }, /*chunk=*/1);
  EXPECT_TRUE(overlapped.load());
}

TEST(ThreadPool, ExceptionPropagates) {
  wu::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  wu::ThreadPool pool(2);
  try {
    pool.parallel_for(0, 10, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPool, SequentialCallsAccumulate) {
  wu::ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(0, 100, [&](std::size_t i) { total.fetch_add(static_cast<long>(i)); });
  }
  EXPECT_EQ(total.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPool, DefaultWorkersPositive) { EXPECT_GE(wu::ThreadPool::default_workers(), 1u); }

TEST(ThreadPool, NestedCallInsideTheOnlyWorkerCompletes) {
  // A chunk running on the pool's only worker issues its own parallel_for
  // on the same pool.  The nested caller drains its chunks itself, so it
  // never waits on the queue its own thread should be serving.
  wu::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_worker{0};
  std::atomic<int> inner{0};
  pool.parallel_for(0, 2, [&](std::size_t) {
    if (std::this_thread::get_id() != caller) on_worker.fetch_add(1);
    pool.parallel_for(0, 8, [&](std::size_t) { inner.fetch_add(1); }, /*chunk=*/1);
  }, /*chunk=*/1);
  EXPECT_EQ(inner.load(), 16);
  EXPECT_LE(on_worker.load(), 2);
}

TEST(ThreadPool, NestedCallsCompleteOnEveryPoolSize) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    wu::ThreadPool pool(workers);
    std::vector<std::atomic<int>> counts(12 * 10);
    pool.parallel_for(0, 12, [&](std::size_t i) {
      pool.parallel_for(0, 10, [&](std::size_t j) { counts[i * 10 + j].fetch_add(1); });
    }, /*chunk=*/1);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1) << workers << " workers";
  }
}

TEST(ThreadPool, NestedExceptionReachesBothCallers) {
  wu::ThreadPool pool(2);
  std::atomic<int> nested_caught{0};
  EXPECT_THROW(pool.parallel_for(0, 4, [&](std::size_t i) {
    if (i != 2) return;
    try {
      pool.parallel_for(0, 16, [](std::size_t j) {
        if (j == 11) throw std::runtime_error("nested boom");
      }, /*chunk=*/1);
    } catch (const std::runtime_error&) {
      nested_caught.fetch_add(1);
      throw;
    }
  }, /*chunk=*/1), std::runtime_error);
  EXPECT_EQ(nested_caught.load(), 1);
}

TEST(ThreadPool, NoCallAfterReturn) {
  // Every call queues helpers that may dequeue after the caller has
  // drained all chunks and returned; such a helper must find nothing left
  // to claim and never invoke fn.
  constexpr std::size_t kCalls = 300;
  std::vector<std::atomic<bool>> returned(kCalls);
  std::atomic<int> late{0};
  std::atomic<long> total{0};
  {
    wu::ThreadPool pool(4);
    for (std::size_t call = 0; call < kCalls; ++call) {
      pool.parallel_for(0, 3 + call % 5, [&, call](std::size_t) {
        if (returned[call].load()) late.fetch_add(1);
        total.fetch_add(1);
      }, /*chunk=*/1);
      returned[call] = true;
    }
  }  // joins the workers once every queued helper has run
  EXPECT_EQ(late.load(), 0);
  long expected = 0;
  for (std::size_t call = 0; call < kCalls; ++call) expected += 3 + call % 5;
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, DestroyWithStaleHelpersQueued) {
  // Park the only worker inside a chunk, then make a second call from this
  // thread: its helper task queues behind the parked worker, the caller
  // drains every chunk itself and returns, and the pool is destroyed with
  // that stale helper still queued (or just dequeued).
  std::atomic<int> calls{0};
  bool was_parked = false;
  int calls_while_parked = 0;
  {
    wu::ThreadPool pool(1);
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    const auto wait_for = [](const std::atomic<bool>& flag) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!flag && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
      return flag.load();
    };
    std::thread holder([&] {
      // The holder's own chunk waits until the worker has claimed the other.
      const auto self = std::this_thread::get_id();
      pool.parallel_for(0, 2, [&](std::size_t) {
        if (std::this_thread::get_id() == self) {
          (void)wait_for(parked);
          return;
        }
        parked = true;
        (void)wait_for(release);
      }, /*chunk=*/1);
    });
    was_parked = wait_for(parked);
    if (was_parked) {
      pool.parallel_for(0, 4, [&](std::size_t) { calls.fetch_add(1); }, /*chunk=*/1);
      calls_while_parked = calls.load();
    }
    release = true;
    holder.join();
  }
  ASSERT_TRUE(was_parked);
  EXPECT_EQ(calls_while_parked, 4);  // returned while the worker was still parked
  EXPECT_EQ(calls.load(), 4);
}
