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
  // because the other worker claims it.
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

TEST(ThreadPool, CurrentDetectsOwningPoolInsideWorkers) {
  // The nested-dispatch guard: inside a worker, current() names the owning
  // pool (sim::Run and the sweep runner key inline fallback off this);
  // outside any worker — including inline 0-worker execution — it is null.
  EXPECT_EQ(wu::ThreadPool::current(), nullptr);
  wu::ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.parallel_for(0, 16, [&](std::size_t) {
    if (wu::ThreadPool::current() == &pool) hits.fetch_add(1);
  });
  EXPECT_EQ(hits.load(), 16);

  wu::ThreadPool inline_pool(0);
  bool inline_null = false;
  inline_pool.parallel_for(0, 1,
                           [&](std::size_t) { inline_null = wu::ThreadPool::current() == nullptr; });
  EXPECT_TRUE(inline_null);
  EXPECT_EQ(wu::ThreadPool::current(), nullptr);
}
