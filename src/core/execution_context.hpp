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
//                          ├─ pool      -> ThreadPool         (borrowed;
//                          │                global by default)
//                          ├─ plans     -> EriPlanCache       (borrowed;
//                          │                process-wide by default)
//                          ├─ faults    -> FaultInjector      (process-wide)
//                          ├─ metrics   -> obs::MetricsRegistry (process-wide)
//                          ├─ tracer    -> obs::Tracer        (process-wide)
//                          ├─ comm      -> Communicator       (owned; "local"
//                          │                or "simcomm" per options.ranks)
//                          └─ components-> ComponentCache     (by value; lazy
//                                           anchor for higher-layer caches)
//
// The context is immutable after construction and cheap to pass by const
// reference; all referenced subsystems are individually thread-safe, so a
// single context may be shared by every worker of a run.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>

#include "kernelmako/class_plan.hpp"
#include "linalg/backend.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/communicator.hpp"
#include "parallel/thread_pool.hpp"
#include "precision/governor.hpp"
#include "robust/cancel.hpp"
#include "robust/fault_injector.hpp"

namespace mako {

/// Everything configurable about an ExecutionContext.  Defaults reproduce
/// the pre-context behavior: process-wide pool/plan-cache.
struct ExecutionContextOptions {
  /// Ignored: run_scf takes the quantization switch from
  /// ScfOptions::enable_quantization.  Kept only because the benchmark
  /// program writes it; it goes when the benchmark stops doing so.
  bool enable_quantization = false;
  /// Worker pool; nullptr borrows ThreadPool::global().
  ThreadPool* pool = nullptr;
  /// ERI plan cache; nullptr borrows the process-wide EriPlanCache.
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
  /// Named cluster topology for the comm cost model (mako --cluster); ""
  /// means "default".  Unknown names throw InputError.
  std::string cluster;
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
  /// `parent` — backend, pool, ERI plan cache, ComponentCache (and
  /// with it the FockPlanCache) — but polls its own CancelToken, so one
  /// job's deadline or fault cancels only that job.  The parent (and the
  /// token) must outlive the view.
  ExecutionContext(const ExecutionContext& parent, CancelToken& cancel);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Default process-wide context for entry points not reached through a
  /// MakoEngine (bare run_scf calls in tests, benches).  Built on first use
  /// with default options.
  static const ExecutionContext& process();

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

  /// Fault-injection hooks (process-wide registry; sites fire only when a
  /// test armed them and MAKO_FAULT_INJECTION is compiled in).
  [[nodiscard]] FaultInjector& faults() const noexcept { return *faults_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return *metrics_;
  }
  [[nodiscard]] obs::Tracer& tracer() const noexcept { return *tracer_; }

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

  /// The rank communicator of this run, owned by the context: "local" for
  /// one rank, "simcomm" for 2..kMaxCommRanks in-process ranks.  Job views
  /// share their parent's communicator, so a batch's jobs reduce over one
  /// consistent rank topology.
  [[nodiscard]] Communicator& comm() const noexcept { return *comm_; }

 private:
  ThreadPool* pool_;      ///< borrowed, never null
  EriPlanCache* plans_;   ///< borrowed, never null
  CancelToken* cancel_;   ///< borrowed, never null
  FaultInjector* faults_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  /// Shared with job views derived from this context; never null.
  std::shared_ptr<ComponentCache> components_;
  /// Shared with job views (one rank topology per batch); never null.
  std::shared_ptr<Communicator> comm_;
};

}  // namespace mako
