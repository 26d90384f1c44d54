// BatchScheduler — multi-molecule throughput engine.
//
// The paper's accelerator pitch is throughput: many small-to-medium SCF jobs
// saturating one device.  Running them as N separate processes wastes exactly
// the state that makes the steady-state fast — the ERI plan cache and the
// Fock plan (Schwarz screen + shell-pair classes) are rebuilt from scratch
// per process.  BatchScheduler
// runs a manifest of jobs concurrently inside ONE process over ONE shared
// ExecutionContext, so those caches are built once and hit by every
// subsequent job over the same basis.
//
// Isolation model (the part the shared state makes hard):
//   - Each job polls its own CancelToken, parent-linked job -> batch ->
//     process (robust/cancel.hpp).  A job's --max-seconds deadline cancels
//     only that job; SIGINT on the process token still stops the whole batch.
//   - Each job runs on an ExecutionContext *view* (shares the pool and every
//     cache of the batch context; swaps in the job token).
//   - Each job's checkpoint goes to its own path, and checkpoint staging
//     names are unique per writer (robust/checkpoint.cpp), so concurrent
//     writers never clobber each other.
//   - A job that throws (bad xyz, unknown basis, odd electron count) or
//     faults becomes an error entry in its own result slot; the other jobs
//     never observe it.
//
// Concurrency model: K driver threads (BatchOptions::concurrency) drain an
// atomic job queue.  Heavy compute lands on the batch context's one
// ThreadPool, sized by the affinity mask; parallel_for is cooperative (the
// driver thread drains chunks itself), so K jobs interleave at chunk
// granularity.  With K > 1 the process can run the pool's workers plus K
// drivers at once, more threads than the mask has CPUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "core/execution_context.hpp"
#include "core/mako.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"
#include "scf/scf.hpp"

namespace mako {

class BasisSet;

/// One job of a batch: a molecule (inline, or loaded from `xyz_path` at run
/// time so a missing file fails only this job) plus the options to run it
/// with.  `options` is the same MakoOptions a solo MakoEngine run takes —
/// the batch expands it through the same scf_options_from().
struct BatchJobSpec {
  std::string name;
  std::string xyz_path;  ///< read when `molecule` is empty
  Molecule molecule;     ///< used when it has atoms
  int charge = 0;
  MakoOptions options{};
  /// Incremental (delta-density) Fock builds for this job; not part of
  /// MakoOptions because solo runs configure it on ScfOptions directly.
  bool incremental = false;
  int incremental_rebuild_period = 8;  ///< ScfOptions default
  /// Non-empty: arm this fault-injection site for the batch (test/demo
  /// harness; a no-op when MAKO_FAULT_INJECTION is compiled out).  Sites are
  /// process-wide, so target one that only this job's configuration reaches
  /// (e.g. "scf.incremental_drift" with exactly one incremental job).
  std::string fault_site;
  FaultSpec fault{};
};

/// Outcome of one job.  Exactly one of two shapes: `ran == true` and `scf`
/// is a full ScfResult (health/exit_code mirror the solo CLI contract), or
/// `ran == false` and `error` says why the job was rejected before SCF
/// (exit_code 1, matching the CLI's generic-exception path).
struct BatchJobResult {
  std::string name;
  bool ran = false;
  ScfResult scf;
  Health health = Health::kFault;
  int exit_code = 1;
  double seconds = 0.0;
  std::size_t nbf = 0;
  std::string error;
};

struct BatchOptions {
  /// Driver threads = jobs in flight at once (clamped to [1, jobs.size()]).
  int concurrency = 2;
  /// Rank count for the batch's shared Communicator (0 resolves $MAKO_RANKS,
  /// then 1).  Every job view shares the one communicator, so a batch
  /// reduces over a single consistent rank topology.
  int ranks = 0;
  /// Parent cancel token; nullptr links under CancelToken::process() so the
  /// CLI signal handlers keep cancelling the whole batch.
  CancelToken* cancel = nullptr;
};

/// Aggregate throughput + cache-reuse statistics of one run() call.
struct BatchRunStats {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  int jobs_total = 0;
  int jobs_ok = 0;
  int jobs_recovered = 0;
  int jobs_not_converged = 0;
  int jobs_fault = 0;
  int jobs_deadline = 0;
  int jobs_cancelled = 0;
  int jobs_error = 0;  ///< rejected before SCF (ran == false)
  /// FockPlanCache deltas across the run: hits > 0 with builds < jobs_total
  /// is the cross-job reuse signal the batch exists for.
  std::int64_t fock_plan_builds = 0;
  std::int64_t fock_plan_hits = 0;
  std::size_t eri_plans = 0;       ///< distinct ERI class plans afterwards
  /// Summed per-stage seconds over every SCF iteration of every job.
  double scf_seconds = 0.0;
  double eri_seconds = 0.0;
  double digest_seconds = 0.0;
  double route_seconds = 0.0;
};

class BatchScheduler {
 public:
  explicit BatchScheduler(BatchOptions options = {});

  /// Runs every job (concurrency per BatchOptions) and returns results in
  /// manifest order.  Never throws for per-job failures; throws InputError
  /// only for an unusable batch (empty job list).  Reentrant per instance is
  /// NOT supported — one run() at a time.
  std::vector<BatchJobResult> run(const std::vector<BatchJobSpec>& jobs);

  /// Stats of the most recent run().
  [[nodiscard]] const BatchRunStats& stats() const noexcept { return stats_; }

  /// The shared execution environment every job's context view derives from.
  [[nodiscard]] const ExecutionContext& context() const noexcept {
    return context_;
  }

  /// Parses a JSON batch manifest (see DESIGN.md, "Batch execution"):
  ///   {"defaults": {...}, "jobs": [{"name": ..., "xyz": ..., ...}]}
  /// Relative "xyz" paths resolve against the manifest's directory.  Throws
  /// InputError on malformed manifests (json::ParseError is wrapped).
  static std::vector<BatchJobSpec> load_manifest(const std::string& path);

 private:
  BatchJobResult run_one(const BatchJobSpec& spec, CancelToken& batch_token);

  /// Returns the pooled BasisSet for (molecule, basis-name), building it at
  /// most once per batch.  Jobs over the same chemistry share one instance —
  /// which is what makes the basis-keyed FockPlanCache hit across jobs.
  std::shared_ptr<const BasisSet> pooled_basis(const Molecule& mol,
                                               const std::string& basis_name);

  BatchOptions options_;
  ExecutionContext context_;
  BatchRunStats stats_;

  std::mutex basis_mutex_;
  std::map<std::pair<std::uint64_t, std::string>,
           std::shared_ptr<const BasisSet>>
      basis_pool_;
};

/// Serializes results + stats as the `mako --batch` JSON document (also the
/// payload bench_batch_throughput records).  Stable key order; ASCII only.
[[nodiscard]] std::string batch_results_json(
    const std::vector<BatchJobResult>& results, const BatchRunStats& stats);

}  // namespace mako
