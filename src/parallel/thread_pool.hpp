// Node-level task parallelism.  The paper assigns one MPI rank per GPU; on
// the host we use a thread pool for intra-rank parallel loops (Fock digestion,
// Fock-plan build).  Each ExecutionContext owns its pool, sized from the
// process's CPU affinity mask (default_pool_workers); a pool of zero or one
// worker runs every loop inline on the caller.
//
// parallel_for is cooperative: the calling thread drains chunks alongside the
// workers instead of blocking on a condition variable while work is pending.
// That makes the call safe even when every worker is busy with unrelated
// tasks, and a nested parallel_for issued from inside a worker of the same
// pool is detected and run inline rather than re-queued (re-queuing from a
// worker used to deadlock: the worker waited on completion of tasks that only
// it could have executed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mako {

/// Fixed-size worker pool with a blocking `parallel_for` API.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 or 1 starts none and every loop runs
  /// inline on the caller.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until done.
  /// The caller participates in the loop (it claims chunks like a worker), so
  /// progress is guaranteed even when all workers are busy.  With zero
  /// workers, count==1, or when called from a worker thread of this pool
  /// (nested parallelism) the loop runs inline.  Every execution path —
  /// queued worker chunks, caller-drained chunks, and the inline/nested
  /// fallbacks — stamps the liveness-watchdog heartbeat.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// The pool whose worker thread is executing the caller, or nullptr when
  /// called from a non-worker thread (e.g. main).
  [[nodiscard]] static ThreadPool* current() noexcept;

 private:
  /// Shared state of one parallel_for call.  Owned by shared_ptr so queued
  /// task copies that run after the call returned (their chunks were already
  /// claimed by other threads) observe a valid, drained context and exit.
  struct Context {
    std::size_t count = 0;
    std::size_t nchunks = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};         ///< next unclaimed chunk
    std::atomic<std::size_t> chunks_done{0};  ///< fully executed chunks
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };

  static void run_chunks(Context& ctx);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Worker count of a pool that fills the calling thread's CPU affinity mask
/// (what `nproc` prints, so it honours taskset): k - 1 for k > 1 CPUs,
/// because the caller drains chunks too, else 1, which runs inline.
[[nodiscard]] std::size_t default_pool_workers() noexcept;

}  // namespace mako
