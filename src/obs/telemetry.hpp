// Per-SCF-iteration telemetry: the paper's Fig. 6-8 quantities as data.
//
// One record per SCF iteration captures the precision policy the scheduler
// chose (the convergence-aware trajectory of Section 3.2.3), the
// screened/quantized/exact integral-class counts, the per-stage ERI/digest
// split, the recovery-ladder rung, and fault/retry counts.  `run_scf` appends
// them to ScfResult::telemetry; the CLI prints the table (--telemetry), and
// the JSON form feeds external analysis.
//
// This header is dependency-free on purpose (obs sits below util in the
// library stack) — the SCF driver fills the records, obs only defines and
// formats them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mako::obs {

/// Everything one SCF iteration reports about itself.
struct IterationTelemetry {
  int iteration = 0;
  double energy = 0.0;
  double error = 0.0;    ///< DIIS commutator max-abs (or |dE| without DIIS)
  double seconds = 0.0;  ///< iteration wall time

  // Precision policy of the successful Fock build attempt.
  const char* precision = "fp64";  ///< quantized-kernel format name
  const char* reason = "";         ///< governor decision (PlanReason name)
  bool quantized_allowed = false;  ///< policy.allow_quantized
  double fp64_threshold = 0.0;     ///< weighted bound above which FP64 runs
  double prune_threshold = 0.0;    ///< weighted bound below which we skip

  // Integral-class routing counts (density-weighted Schwarz classifier).
  std::int64_t quartets_fp64 = 0;
  std::int64_t quartets_quantized = 0;
  std::int64_t quartets_pruned = 0;
  /// Quartets demoted from the quantized route to FP64 by the governor's
  /// per-angular-momentum cap (quantized_max_l); included in quartets_fp64.
  std::int64_t quartets_fp64_high_l = 0;

  // Per-stage split of the Fock build: eri/digest are summed per-shard CPU
  // seconds (they can exceed the iteration's wall time on a pool); route is
  // the wall-clock of the dmax + routing pass.
  double eri_seconds = 0.0;
  double digest_seconds = 0.0;
  double route_seconds = 0.0;
  /// Wall time of the XC quadrature (0 for Hartree-Fock).
  double xc_seconds = 0.0;

  // Resilience state after the iteration.
  int ladder_rung = 0;  ///< highest recovery rung reached so far
  int retries = 0;      ///< in-iteration hard-fault rebuilds
  std::int64_t domain_faults = 0;
  /// Collective resends this iteration; 0 in single-rank runs (the SCF
  /// driver folds the Fock build's Communicator retry deltas in here).
  std::int64_t comm_retries = 0;
  /// Modeled collective time of this iteration's partial-J/K allreduces
  /// (zero on one rank).
  double comm_allreduce_s = 0.0;
  /// Logical payload bytes this iteration's collectives moved.
  std::uint64_t comm_bytes = 0;
};

/// Human-readable per-iteration table (CLI --telemetry output).
[[nodiscard]] std::string telemetry_table(
    const std::vector<IterationTelemetry>& records);

/// JSON array of records (embedded by bench harnesses / --metrics-json
/// consumers).
[[nodiscard]] std::string telemetry_json(
    const std::vector<IterationTelemetry>& records);

}  // namespace mako::obs
