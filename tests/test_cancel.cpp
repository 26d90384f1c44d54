// Tests for cooperative cancellation (robust/cancel.hpp), the wall-clock
// budget, the liveness watchdog, and the Health -> exit-code contract the
// mako CLI is scripted against.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "parallel/thread_pool.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/status.hpp"
#include "robust/watchdog.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(CancelTokenTest, FirstReasonWins) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
  t.request(CancelReason::kSignal);
  t.request(CancelReason::kUser);  // later requests must not overwrite
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kSignal);
  t.clear();
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
}

TEST(CancelTokenTest, DeadlineExpiryLatches) {
  CancelToken t;
  t.set_deadline(1e-9);
  sleep_ms(5);
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kDeadline);
  // Replacing the deadline must not un-cancel an observed expiry.
  t.set_deadline(1000.0);
  EXPECT_TRUE(t.cancelled());
  t.clear();
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelTokenTest, NonPositiveBudgetDisarms) {
  CancelToken t;
  t.set_deadline(0.0);
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(std::isinf(t.remaining_seconds()));
  t.set_deadline(-1.0);
  EXPECT_FALSE(t.cancelled());
}

TEST(DeadlineTest, ArmsAndExpires) {
  const Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_TRUE(std::isinf(none.remaining_seconds()));

  const Deadline far = Deadline::after(60.0);
  EXPECT_TRUE(far.armed());
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_seconds(), 0.0);
  EXPECT_LE(far.remaining_seconds(), 60.0);

  const Deadline past = Deadline::after(1e-9);
  sleep_ms(5);
  EXPECT_TRUE(past.expired());
  EXPECT_LT(past.remaining_seconds(), 0.0);
}

TEST(ScopedDeadlineTest, ClearsItsOwnExpiryOnExit) {
  CancelToken t;
  {
    ScopedDeadline guard(t, 1e-9);
    sleep_ms(5);
    EXPECT_TRUE(t.cancelled());
    EXPECT_EQ(t.reason(), CancelReason::kDeadline);
  }
  // The token is reusable by the next run.
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
}

TEST(ScopedDeadlineTest, SignalCancellationSurvivesTheScope) {
  CancelToken t;
  {
    ScopedDeadline guard(t, 1000.0);
    t.request(CancelReason::kSignal);
  }
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kSignal);
}

TEST(ExitCodeTest, HealthContractIsStable) {
  // Documented in apps/mako_cli.cpp; scripts depend on these exact values.
  EXPECT_EQ(exit_code_for(Health::kOk), 0);
  EXPECT_EQ(exit_code_for(Health::kRecovered), 3);
  EXPECT_EQ(exit_code_for(Health::kNotConverged), 4);
  EXPECT_EQ(exit_code_for(Health::kFault), 5);
  EXPECT_EQ(exit_code_for(Health::kDeadlineExceeded), 6);
  EXPECT_EQ(exit_code_for(Health::kCancelled), 7);
}

// --- SCF integration ------------------------------------------------------

TEST(ScfCancelTest, PreCancelledTokenStopsBeforeAnyIteration) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  CancelToken token;
  token.request(CancelReason::kUser);
  const ExecutionContext ctx(
      ExecutionContextOptions{.backend = "", .cancel = &token, .make_active = false});
  const ScfResult r = run_scf(w, bs, {}, &ctx);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.health, Health::kCancelled);
  EXPECT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.status.kind(), FaultKind::kCancelled);
}

TEST(ScfCancelTest, ExpiredBudgetDoesNotPoisonTheNextRun) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  CancelToken token;
  const ExecutionContext ctx(
      ExecutionContextOptions{.backend = "", .cancel = &token, .make_active = false});

  ScfOptions strangled;
  strangled.durability.max_seconds = 1e-6;  // expires at the first poll
  const ScfResult r1 = run_scf(w, bs, strangled, &ctx);
  EXPECT_FALSE(r1.converged);
  EXPECT_EQ(r1.health, Health::kDeadlineExceeded);
  EXPECT_EQ(r1.status.kind(), FaultKind::kDeadlineExceeded);

  // ScopedDeadline cleared the deadline-expiry on exit: the same context
  // runs to convergence with no budget.
  const ScfResult r2 = run_scf(w, bs, {}, &ctx);
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r2.health, Health::kOk);
  EXPECT_FALSE(token.cancelled());
}

/// Budget expiry mid-run: best-so-far results, a loadable final checkpoint,
/// and a restore that picks up where the budget cut off.
TEST(ScfCancelTest, BudgetExpiryLeavesALoadableCheckpoint) {
  const Molecule w = make_water_cluster(2);
  const BasisSet bs(w, "sto-3g");
  const std::string ck =
      "./cancel_test_budget." + std::to_string(::getpid());

  ScfOptions opt;
  opt.energy_convergence = 0.0;  // |dE| < 0 is unsatisfiable: never converges
  opt.max_iterations = 10000;
  opt.durability.checkpoint_path = ck;
  opt.durability.max_seconds = 1.0;  // enough for a few iterations, not 10k
  CancelToken token;
  const ExecutionContext ctx(
      ExecutionContextOptions{.backend = "", .cancel = &token, .make_active = false});
  const ScfResult r = run_scf(w, bs, opt, &ctx);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.health, Health::kDeadlineExceeded);
  if (r.iterations < 1) {
    // A sanitizer/valgrind box too slow for one iteration per second can't
    // exercise the checkpoint half; the graceful-stop half still held.
    GTEST_SKIP() << "no iteration completed within the budget";
  }
  EXPECT_NE(r.energy, 0.0);  // best-so-far snapshot, not a zeroed result

  const ScfState s = load_checkpoint(ck);
  EXPECT_EQ(s.next_iteration, r.iterations);
  EXPECT_EQ(s.last_energy, r.energy);

  // Resume for two more iterations (same trajectory-shaping options; the
  // iteration cap is not part of the fingerprint).
  ScfOptions tail = opt;
  tail.durability = {};
  tail.durability.restore_path = ck;
  tail.max_iterations = s.next_iteration + 2;
  const ScfResult resumed = run_scf(w, bs, tail, &ctx);
  EXPECT_EQ(resumed.resumed_from, s.next_iteration);
  EXPECT_EQ(resumed.iterations, 2);
  std::remove(ck.c_str());
}

TEST(ScfCancelTest, MidRunUserCancelReturnsBestSoFar) {
  const Molecule w = make_water_cluster(2);
  const BasisSet bs(w, "sto-3g");
  ScfOptions opt;
  opt.energy_convergence = 0.0;
  opt.max_iterations = 10000;
  CancelToken token;
  const ExecutionContext ctx(
      ExecutionContextOptions{.backend = "", .cancel = &token, .make_active = false});
  std::thread killer([&token] {
    sleep_ms(150);
    token.request(CancelReason::kUser);
  });
  const ScfResult r = run_scf(w, bs, opt, &ctx);
  killer.join();
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.health, Health::kCancelled);
  EXPECT_EQ(r.status.kind(), FaultKind::kCancelled);
  token.clear();
}

// --- liveness watchdog ----------------------------------------------------

TEST(WatchdogTest, DetectsAStalledParallelRegion) {
  Watchdog& wd = Watchdog::instance();
  wd.reset_events();
  const std::uint64_t stalls_before = wd.stalls_detected();
  wd.start(0.05);
  {
    WatchdogRegion region;  // active region, no heartbeats: a wedge
    sleep_ms(250);
  }
  wd.stop();
  EXPECT_FALSE(wd.running());
  EXPECT_GE(wd.stalls_detected(), stalls_before + 1);
  const Status st = wd.last_status();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.kind(), FaultKind::kWedged);
  const auto events = wd.events();
  ASSERT_FALSE(events.empty());
  EXPECT_GE(events.front().stalled_seconds, 0.05);
  wd.reset_events();
}

TEST(WatchdogTest, HealthyPoolTrafficDoesNotTrip) {
  Watchdog& wd = Watchdog::instance();
  wd.reset_events();
  const std::uint64_t stalls_before = wd.stalls_detected();
  const std::uint64_t beats_before = wd.beats();
  {
    ScopedWatchdog guard(30.0);  // generous window
    EXPECT_TRUE(wd.running());
    std::atomic<std::uint64_t> sum{0};
    parallel_for(512, [&sum](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_FALSE(wd.running());
  EXPECT_EQ(wd.stalls_detected(), stalls_before);
  // parallel_for chunks stamp heartbeats (the global pool may legitimately
  // run everything inline on a 1-core machine, so only check when pooled).
  if (ThreadPool::global().size() > 1) {
    EXPECT_GT(wd.beats(), beats_before);
  }
}

// --- parent-linked tokens (the batch isolation chain) ---------------------

TEST(CancelTokenTest, ParentCancellationCascadesToChildren) {
  CancelToken batch;
  CancelToken job_a, job_b;
  job_a.link_parent(&batch);
  job_b.link_parent(&batch);

  batch.request(CancelReason::kSignal);
  EXPECT_TRUE(job_a.cancelled());
  EXPECT_TRUE(job_b.cancelled());
  EXPECT_EQ(job_a.reason(), CancelReason::kSignal);
  batch.clear();
}

TEST(CancelTokenTest, ChildDeadlineDoesNotLeakToSiblings) {
  // The property the per-job --max-seconds contract rests on: one job's
  // expired budget cancels that job only; the batch and its siblings run on.
  CancelToken batch;
  CancelToken job_a, job_b;
  job_a.link_parent(&batch);
  job_b.link_parent(&batch);

  job_a.set_deadline(1e-9);
  sleep_ms(5);
  EXPECT_TRUE(job_a.cancelled());
  EXPECT_EQ(job_a.reason(), CancelReason::kDeadline);
  EXPECT_FALSE(batch.cancelled());
  EXPECT_FALSE(job_b.cancelled());
}

TEST(CancelTokenTest, CancellationFlowsThroughTransitiveChain) {
  // job -> batch -> process: the CLI's SIGTERM lands on the root and must be
  // observable at the leaf through two hops.
  CancelToken root, mid, leaf;
  mid.link_parent(&root);
  leaf.link_parent(&mid);

  EXPECT_FALSE(leaf.cancelled());
  root.request(CancelReason::kUser);
  EXPECT_TRUE(mid.cancelled());
  EXPECT_TRUE(leaf.cancelled());
  EXPECT_EQ(leaf.reason(), CancelReason::kUser);

  // A polled cascade latches locally: health classification still reads the
  // true cause after the root token is cleared for reuse.
  root.clear();
  EXPECT_TRUE(leaf.cancelled());
  EXPECT_EQ(leaf.reason(), CancelReason::kUser);

  // An unlinked token never sees later root requests.
  CancelToken detached;
  detached.link_parent(&root);
  detached.link_parent(nullptr);
  root.request(CancelReason::kUser);
  EXPECT_FALSE(detached.cancelled());
  root.clear();
}

// --- inline parallel_for heartbeats (batch-exposed watchdog blind spot) ---

TEST(WatchdogTest, InlineSingleElementLoopStampsHeartbeat) {
  // Regression: count==1 short-circuits parallel_for to an inline call,
  // which used to skip the heartbeat — a batch job inside a long sequence
  // of tiny loops looked wedged to the watchdog.
  Watchdog& wd = Watchdog::instance();
  const std::uint64_t beats_before = wd.beats();
  parallel_for(1, [](std::size_t) {});
  EXPECT_GE(wd.beats(), beats_before + 1);
}

TEST(WatchdogTest, NestedInlineLoopStampsHeartbeat) {
  // Same blind spot, second path: a parallel_for issued from inside a worker
  // of the same pool runs inline (the re-queue deadlock fix) and must still
  // stamp beats.  Only meaningful when the loop actually lands on workers.
  if (ThreadPool::global().size() < 2) GTEST_SKIP() << "no pooled workers";
  Watchdog& wd = Watchdog::instance();
  const std::uint64_t beats_before = wd.beats();
  std::atomic<std::uint64_t> nested_on_worker{0};
  // The caller drains chunks cooperatively and may win them all on a loaded
  // host; retry until a worker actually executes one.
  for (int attempt = 0; attempt < 5 && nested_on_worker.load() == 0;
       ++attempt) {
    parallel_for(256, [&nested_on_worker](std::size_t) {
      if (ThreadPool::current() != nullptr) {
        nested_on_worker.fetch_add(1, std::memory_order_relaxed);
        parallel_for(4, [](std::size_t) {});  // nested: runs inline
      }
    });
  }
  if (nested_on_worker.load() == 0) {
    GTEST_SKIP() << "caller drained every chunk; nested path not exercised";
  }
  // Each nested inline call must stamp at least one beat on top of whatever
  // the outer chunks stamped — a strict lower bound robust to chunking.
  EXPECT_GE(wd.beats(), beats_before + nested_on_worker.load());
}

TEST(WatchdogTest, ScopedWatchdogIsANoOpWhenDisabled) {
  Watchdog& wd = Watchdog::instance();
  {
    ScopedWatchdog guard(0.0);
    EXPECT_FALSE(wd.running());
  }
  EXPECT_FALSE(wd.running());
}

}  // namespace
}  // namespace mako
