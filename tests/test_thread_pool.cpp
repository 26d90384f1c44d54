// Thread-pool / parallel_for tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace mako {
namespace {

TEST(ThreadPoolTest, CoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleElementRunsInline) {
  ThreadPool pool(2);
  std::size_t seen = 99;
  pool.parallel_for(1, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolTest, SerialFallbackWithZeroWorkers) {
  ThreadPool pool(1);  // degrades to inline execution
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(3);
  std::vector<double> values(5000);
  std::iota(values.begin(), values.end(), 0.0);
  std::atomic<long long> sum{0};
  pool.parallel_for(values.size(), [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(values[i]));
  });
  EXPECT_EQ(sum.load(), 5000LL * 4999 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunInline) {
  ThreadPool pool(0);  // like ThreadPool(1): no workers, the caller runs all
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> order;
  pool.parallel_for(4, [&](std::size_t i) {
    EXPECT_EQ(ThreadPool::current(), nullptr);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Regression: a parallel_for issued from inside a worker of the same pool
// used to deadlock (the worker queued chunk tasks and then blocked waiting
// for completions that only it could have produced).  Nested calls must now
// run inline and the whole construct must terminate with every index visited.
TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Three levels deep.
TEST(ThreadPoolTest, DeeplyNestedParallelForTerminates) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
    });
  });
  EXPECT_EQ(count.load(), 4 * 4 * 4);
}

// current() identifies worker context: null on the caller thread, the pool
// itself inside its workers (this is what routes nested calls inline).
TEST(ThreadPoolTest, CurrentReportsWorkerContext) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool pool(2);
  std::atomic<int> on_worker{0};
  std::atomic<int> total{0};
  pool.parallel_for(128, [&](std::size_t) {
    total.fetch_add(1);
    if (ThreadPool::current() == &pool) on_worker.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 128);
  // The caller drains chunks too, so not every index runs on a worker; the
  // ones that do must see their own pool.  On the caller thread current()
  // stays null throughout.
  EXPECT_LE(on_worker.load(), total.load());
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

// Regression: parallel_for must finish even when every worker is wedged on
// other long-running work, because the caller participates in draining the
// chunks instead of blocking on a condition variable.  A helper thread owns a
// parallel_for whose bodies block on a gate, occupying the workers; the main
// thread then issues its own parallel_for on the same pool, which must
// complete by self-draining before the gate opens.
TEST(ThreadPoolTest, CallerDrainsWhenWorkersAreOccupied) {
  ThreadPool pool(2);
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> gated{0};

  std::thread occupier([&] {
    pool.parallel_for(2, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(m);
      gated.fetch_add(1);
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  });

  // Wait until at least one body is parked on the gate (workers and/or the
  // occupier thread are consumed by the blocking loop).
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return gated.load() >= 1; });
  }

  std::atomic<int> count{0};
  pool.parallel_for(256, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 256);

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  occupier.join();
  EXPECT_EQ(gated.load(), 2);
}

}  // namespace
}  // namespace mako
