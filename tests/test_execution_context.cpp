// ExecutionContext ownership tests: a default context builds a pool sized by
// the CPU affinity mask and a plan cache of its own, so no two contexts share
// either; a caller's pool and plan cache are borrowed; a job view shares
// everything with its parent except the cancel token.
#include <gtest/gtest.h>
#include <sched.h>

#include <cstddef>
#include <thread>

#include "core/execution_context.hpp"

namespace mako {
namespace {

/// CPUs in the calling thread's affinity mask, read independently of the
/// library.
std::size_t mask_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Worker threads a default pool starts on a mask of `k` CPUs: k - 1, and
/// none when that leaves a single worker (ThreadPool(1) runs inline).
std::size_t expected_workers(std::size_t k) { return k > 2 ? k - 1 : 0; }

TEST(ExecutionContextTest, DefaultPoolFollowsTheAffinityMask) {
  const ExecutionContext ctx;
  EXPECT_EQ(ctx.pool().size(), expected_workers(mask_cpus()));

  // The same rule on a one-CPU mask, set on a thread of this test only.
  std::size_t one_cpu_workers = 99;
  std::thread pinned([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
    int first = 0;
    while (!CPU_ISSET(first, &set)) ++first;
    CPU_ZERO(&set);
    CPU_SET(first, &set);
    ASSERT_EQ(sched_setaffinity(0, sizeof set, &set), 0);
    const ExecutionContext pinned_ctx;
    one_cpu_workers = pinned_ctx.pool().size();
  });
  pinned.join();
  EXPECT_EQ(one_cpu_workers, 0u);
}

TEST(ExecutionContextTest, DefaultContextsOwnSeparatePoolsAndPlanCaches) {
  const ExecutionContext a;
  const ExecutionContext b;
  EXPECT_NE(&a.pool(), &b.pool());
  EXPECT_NE(&a.plans(), &b.plans());
  EXPECT_NE(&a.components(), &b.components());
  EXPECT_NE(&a.comm(), &b.comm());

  // A plan built through one context is not visible through the other.
  const EriClassKey key{1, 1, 0, 0, 1, 1};
  (void)a.plans().get(key);
  EXPECT_EQ(a.plans().size(), 1u);
  EXPECT_EQ(b.plans().size(), 0u);
}

TEST(ExecutionContextTest, BorrowsTheCallersPoolAndPlanCache) {
  ThreadPool pool(1);
  EriPlanCache plans;
  ExecutionContextOptions options;
  options.pool = &pool;
  options.plans = &plans;
  const ExecutionContext ctx(options);
  EXPECT_EQ(&ctx.pool(), &pool);
  EXPECT_EQ(&ctx.plans(), &plans);
}

TEST(ExecutionContextTest, JobViewSharesEverythingButTheCancelToken) {
  const ExecutionContext parent;
  CancelToken token;
  const ExecutionContext view(parent, token);
  EXPECT_EQ(&view.pool(), &parent.pool());
  EXPECT_EQ(&view.plans(), &parent.plans());
  EXPECT_EQ(&view.components(), &parent.components());
  EXPECT_EQ(&view.comm(), &parent.comm());
  EXPECT_EQ(&view.cancel(), &token);
  EXPECT_NE(&view.cancel(), &parent.cancel());
}

}  // namespace
}  // namespace mako
