// ExecutionContext — the single ownership point for everything a compute
// path needs besides its chemistry inputs.
//
// Before this layer existed, the thread pool, plan cache,
// precision policy, GEMM kernels, fault hooks, and observability sinks were
// threaded ad hoc: some as per-call parameters, some as process singletons
// looked up at every site.  That blocked the ROADMAP's multi-rank north
// star — a second rank topology had nowhere to live.  ExecutionContext
// gathers them into one object constructed once by MakoEngine (or by a
// test) and passed by reference through batched_eri, fock, scf, xc, and
// simcomm.
//
// Ownership graph (see DESIGN.md, "Execution layer"):
//
//   MakoEngine ──owns──> ExecutionContext
//                          ├─ backend   -> GemmBackend        (the one
//                          │                instance)
//                          ├─ pool      -> ThreadPool         (owned, sized
//                          │                by the affinity mask, unless the
//                          │                caller passes one)
//                          ├─ plans     -> EriPlanCache       (owned, unless
//                          │                the caller passes one)
//                          ├─ cancel    -> CancelToken        (borrowed;
//                          │                process token by default)
//                          ├─ comm      -> Communicator       (owned;
//                          │                options.ranks in-process ranks)
//                          └─ components-> ComponentCache     (owned; lazy
//                                           anchor for higher-layer caches)
//
// A job view shares every one of these with its parent except the cancel
// token.  The context is immutable after construction and cheap to pass by
// const reference; all referenced subsystems are individually thread-safe,
// so a single context may be shared by every worker of a run.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <typeindex>

#include "kernelmako/class_plan.hpp"
#include "linalg/backend.hpp"
#include "parallel/communicator.hpp"
#include "parallel/thread_pool.hpp"
#include "precision/governor.hpp"
#include "robust/cancel.hpp"

namespace mako {

/// Everything configurable about an ExecutionContext.  By default the
/// context builds its own pool and plan cache, so no two runs share them.
struct ExecutionContextOptions {
  /// Ignored: run_scf takes the quantization switch from
  /// ScfOptions::enable_quantization.  Kept only because the benchmark
  /// program writes it; it goes when the benchmark stops doing so.
  bool enable_quantization = false;
  /// Worker pool to borrow; nullptr builds an owned
  /// ThreadPool(default_pool_workers()), which fills the affinity mask.
  ThreadPool* pool = nullptr;
  /// ERI plan cache to borrow; nullptr builds an owned one.
  EriPlanCache* plans = nullptr;
  /// Cooperative-cancellation token polled at shard granularity throughout
  /// the compute path; nullptr borrows CancelToken::process() (which the CLI
  /// signal handlers trip).  Tests pass their own token to cancel one run
  /// without touching the process-wide one.
  CancelToken* cancel = nullptr;
  /// Rank count for the owned Communicator; 0 resolves $MAKO_RANKS, then 1
  /// (MakoOptions::ranks / mako --ranks).  Must be a power of two in
  /// [1, kMaxCommRanks] after resolution; anything else throws InputError.
  int ranks = 0;
};

/// Type-keyed cache of lazily constructed per-context components.
///
/// Higher layers (scf, xc) need somewhere to anchor caches that live as long
/// as the run — e.g. the FockPlanCache — but the core library cannot name
/// their types without inverting the link graph (core is a leaf; scf links
/// core).  ComponentCache type-erases the slot: `components().get<T>()`
/// default-constructs a T on first use and returns the same instance for the
/// context's lifetime.  Thread-safe; T must be default-constructible.
class ComponentCache {
 public:
  ComponentCache() = default;
  ComponentCache(const ComponentCache&) = delete;
  ComponentCache& operator=(const ComponentCache&) = delete;

  template <typename T>
  [[nodiscard]] T& get() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<void>& slot = slots_[std::type_index(typeid(T))];
    if (slot == nullptr) slot = std::shared_ptr<void>(new T());
    return *static_cast<T*>(slot.get());
  }

 private:
  mutable std::mutex mutex_;
  mutable std::map<std::type_index, std::shared_ptr<void>> slots_;
};

/// Immutable execution environment of one Mako run.
class ExecutionContext {
 public:
  explicit ExecutionContext(ExecutionContextOptions options = {});

  /// Per-job view for batch execution: shares every subsystem and cache of
  /// `parent` — backend, pool, ERI plan cache, communicator, ComponentCache
  /// (and with it the FockPlanCache) — but polls its own CancelToken, so
  /// one job's deadline or fault cancels only that job.  The parent (and
  /// the token) must outlive the view.
  ExecutionContext(const ExecutionContext& parent, CancelToken& cancel);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// The GEMM backend every matmul of this run dispatches through (the
  /// one GemmBackend::instance()).
  [[nodiscard]] const GemmBackend& backend() const noexcept {
    return GemmBackend::instance();
  }
  [[nodiscard]] ThreadPool& pool() const noexcept { return *pool_; }
  [[nodiscard]] EriPlanCache& plans() const noexcept { return *plans_; }

  /// Governor factory — the single construction point of precision
  /// authority.  The caller supplies the run's config and fallback prune
  /// threshold, because a governor is stateful per run (latches, ladder
  /// stage) while the context is immutable and may be shared by concurrent
  /// batch jobs.
  [[nodiscard]] PrecisionGovernor make_governor(
      const PrecisionConfig& config, bool enable_quantization,
      double fallback_prune_threshold) const {
    return PrecisionGovernor(config, enable_quantization,
                             fallback_prune_threshold);
  }

  /// Cooperative-cancellation token of this run.  Compute loops poll
  /// `cancel().cancelled()` at shard/chunk granularity and bail early;
  /// the SCF driver turns the trip into a graceful stop (final checkpoint,
  /// best-so-far result, Health::kDeadlineExceeded / kCancelled).
  [[nodiscard]] CancelToken& cancel() const noexcept { return *cancel_; }

  /// Per-context anchor for higher-layer caches (FockPlanCache et al.);
  /// see ComponentCache.  The context stays logically immutable — components
  /// are lazily built services, not configuration.  Job views share their
  /// parent's cache, which is what lets N batch jobs over one basis build a
  /// FockPlan once.
  [[nodiscard]] ComponentCache& components() const noexcept {
    return *components_;
  }

  /// The rank communicator of this run, owned by the context.  Job views
  /// share their parent's communicator, so a batch's jobs reduce over one
  /// consistent rank topology.
  [[nodiscard]] Communicator& comm() const noexcept { return *comm_; }

 private:
  /// Set when the options passed no pool / plan cache; a job view leaves
  /// them empty and borrows its parent's through pool_ / plans_.
  std::unique_ptr<ThreadPool> own_pool_;
  std::unique_ptr<EriPlanCache> own_plans_;
  ThreadPool* pool_;      ///< never null
  EriPlanCache* plans_;   ///< never null
  CancelToken* cancel_;   ///< borrowed, never null
  /// Shared with job views derived from this context; never null.
  std::shared_ptr<ComponentCache> components_;
  /// Shared with job views (one rank topology per batch); never null.
  std::shared_ptr<Communicator> comm_;
};

}  // namespace mako
