#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gmfnet {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForSmallerThanPool) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 5 * (99 * 100 / 2));
}

TEST(ThreadPool, NestedParallelForFromWorkerThrows) {
  // The documented contract: parallel_for from a worker of the same pool
  // would wait on the very worker making the call.  It must throw instead
  // of deadlocking — before enqueuing anything.
  ThreadPool pool(2);
  std::atomic<int> rejected{0};
  std::atomic<int> ran{0};
  pool.parallel_for(4, [&](std::size_t) {
    ran.fetch_add(1);
    try {
      pool.parallel_for(2, [](std::size_t) {});
      ADD_FAILURE() << "nested parallel_for did not throw";
    } catch (const std::logic_error&) {
      rejected.fetch_add(1);
    }
  });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(rejected.load(), 4);
  // The pool is still usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ConcurrentParallelForCallsAreSerialized) {
  // Two external threads hammering the same pool: the internal mutex must
  // serialize the calls so every index of every call runs exactly once.
  ThreadPool pool(4);
  constexpr std::size_t kPerCall = 500;
  constexpr int kCallsPerThread = 10;
  std::vector<std::atomic<int>> hits(kPerCall);
  std::atomic<long> total{0};
  auto hammer = [&] {
    for (int c = 0; c < kCallsPerThread; ++c) {
      std::vector<int> local(kPerCall, 0);
      pool.parallel_for(kPerCall, [&](std::size_t i) {
        hits[i].fetch_add(1);
        local[i] += 1;
        total.fetch_add(1);
      });
      // Within one call, each index ran exactly once.
      for (std::size_t i = 0; i < kPerCall; ++i) ASSERT_EQ(local[i], 1);
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2L * kCallsPerThread * kPerCall);
  for (std::size_t i = 0; i < kPerCall; ++i) {
    EXPECT_EQ(hits[i].load(), 2 * kCallsPerThread) << "index " << i;
  }
}

TEST(ThreadPool, CallerTakesChunksToo) {
  // The calling thread (slot size()) works on its own call instead of
  // sleeping until the workers finish.  Every item a worker runs waits,
  // bounded, until the caller has run one; were the caller idle, the first
  // wait would time out (and the rest would not wait).
  ThreadPool pool(3);
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> timed_out{false};
  std::vector<std::atomic<int>> hits(8);
  pool.parallel_for_slotted(hits.size(), [&](std::size_t slot, std::size_t i) {
    hits[i].fetch_add(1);
    ASSERT_LE(slot, pool.size());
    if (slot == pool.size()) {
      caller_ran.store(true);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!caller_ran.load() && !timed_out.load()) {
      if (std::chrono::steady_clock::now() > deadline) timed_out.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_TRUE(caller_ran.load());
  EXPECT_FALSE(timed_out.load());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  // Single worker executes sequentially, so no synchronization needed.
  pool.parallel_for(10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);
}

}  // namespace
}  // namespace gmfnet
