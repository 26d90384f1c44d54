#include "parallel/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

#include "obs/metrics.hpp"
#include "robust/watchdog.hpp"

namespace mako {

namespace {
// Set by worker_loop so parallel_for can detect that it is already running on
// a worker of this pool (nested parallelism) and must execute inline instead
// of queueing tasks it might end up waiting on.
thread_local ThreadPool* tl_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  // A lone worker gains nothing over the caller; run inline.
  if (num_threads <= 1) return;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool* ThreadPool::current() noexcept { return tl_worker_pool; }

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_chunks(Context& ctx) {
  for (;;) {
    const std::size_t c = ctx.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= ctx.nchunks) return;
    const std::size_t lo = c * ctx.count / ctx.nchunks;
    const std::size_t hi = (c + 1) * ctx.count / ctx.nchunks;
    // One relaxed heartbeat store per chunk; the liveness watchdog reads
    // these to tell a wedged run from a slow one.
    Watchdog::instance().beat();
    for (std::size_t i = lo; i < hi; ++i) (*ctx.fn)(i);
    // Completion is counted per chunk, after fn ran: when the caller sees
    // chunks_done == nchunks every fn invocation has finished, so the
    // caller's stack frame (fn, ctx fields) may be torn down safely.
    if (ctx.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        ctx.nchunks) {
      std::lock_guard<std::mutex> lock(ctx.done_mutex);
      ctx.done_cv.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Inline paths: no workers, a degenerate loop, or a nested call from one of
  // this pool's own workers.  The nested case used to deadlock — the worker
  // queued tasks and then blocked waiting for them, but as a worker it was
  // itself the thread that should have run them.
  //
  // Inline chunks stamp the liveness heartbeat exactly like queued chunks do.
  // Without this a batch job whose parallel loops all run nested-inline makes
  // no heartbeat progress at all, and the watchdog reports a healthy run as
  // kWedged the moment any sibling holds a parallel region open.
  if (workers_.empty() || count == 1) {
    Watchdog& dog = Watchdog::instance();
    for (std::size_t i = 0; i < count; ++i) {
      dog.beat();
      fn(i);
    }
    return;
  }
  if (tl_worker_pool == this) {
    MAKO_METRIC_COUNT("pool.nested_inline", 1);
    Watchdog& dog = Watchdog::instance();
    for (std::size_t i = 0; i < count; ++i) {
      dog.beat();
      fn(i);
    }
    return;
  }
  MAKO_METRIC_COUNT("pool.parallel_for", 1);
  // Mark the parallel region for the liveness watchdog: stalls only count
  // while at least one region is active (an idle pool is not a wedge).
  WatchdogRegion watchdog_region;

  auto ctx = std::make_shared<Context>();
  ctx->count = count;
  // Over-decompose ~4x for load balance; the caller counts as a lane too.
  ctx->nchunks = std::min(count, (workers_.size() + 1) * 4);
  ctx->fn = &fn;

  // One queued helper per worker, capped at nchunks-1 (the caller claims at
  // least one chunk itself).  Helpers that wake up after every chunk has been
  // claimed see next >= nchunks and return without touching fn.
  const std::size_t helpers = std::min(workers_.size(), ctx->nchunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t w = 0; w < helpers; ++w) {
      tasks_.push([ctx] { run_chunks(*ctx); });
    }
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }

  // The caller drains chunks like any worker — this is what makes the call
  // safe when all workers are busy with unrelated (or sibling) tasks.
  run_chunks(*ctx);

  std::unique_lock<std::mutex> lock(ctx->done_mutex);
  ctx->done_cv.wait(lock, [&] {
    return ctx->chunks_done.load(std::memory_order_acquire) == ctx->nchunks;
  });
}

std::size_t default_pool_workers() noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int k = CPU_COUNT(&set);
  return k > 1 ? static_cast<std::size_t>(k - 1) : 1;
}

}  // namespace mako
