// Restricted closed-shell SCF driver (Hartree-Fock and hybrid/pure DFT).
//
// This is the full DFT workflow of Section 2.1: ERI evaluation (via
// KernelMako), exchange-correlation quadrature, and Fock diagonalization, with
// DIIS acceleration and QuantMako's convergence-aware precision scheduling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "obs/telemetry.hpp"
#include "precision/governor.hpp"
#include "robust/status.hpp"
#include "scf/fock.hpp"
#include "scf/grid.hpp"
#include "scf/xc.hpp"

namespace mako {

class ExecutionContext;

/// Checkpoint/restart and wall-clock budget configuration.
///
/// A checkpoint captures every loop-carried datum of the driver, so a
/// restored run continues bit-identically (see robust/checkpoint.hpp).
/// Restore validates a content fingerprint of the molecule/basis/options —
/// resuming against a different problem throws InputError rather than
/// silently computing garbage.
struct DurabilityOptions {
  std::string checkpoint_path;     ///< ""=never write checkpoints
  int checkpoint_interval = 1;     ///< write every N completed iterations
  std::string restore_path;        ///< ""=fresh start
  /// >0: wall-clock budget (seconds).  The run arms a deadline on the
  /// context's CancelToken; expiry stops the run gracefully — the partial
  /// iteration is discarded, a final checkpoint is written, and the result
  /// carries Health::kDeadlineExceeded with the best-so-far state.
  double max_seconds = 0.0;
};

struct ScfOptions {
  XcFunctional xc{XcKind::kNone};       ///< kNone = Hartree-Fock
  FockOptions fock{};                   ///< Fock build batching
  GridSpec grid = GridSpec::coarse();   ///< XC quadrature quality
  /// Incremental Fock builds: after the first iteration, evaluate only the
  /// two-electron response of the density *change*.  The shrinking delta
  /// density makes the density-weighted Schwarz screen progressively more
  /// effective.  Full rebuilds happen periodically and on the final exact
  /// iteration to bound error accumulation.
  bool incremental_fock = false;
  int incremental_rebuild_period = 8;
  int max_iterations = 60;
  double energy_convergence = 1e-8;     ///< |dE| between iterations
  double diis_convergence = 1e-6;       ///< max |FDS - SDF|
  bool enable_quantization = false;     ///< QuantMako scheduling on/off
  /// Precision-governance configuration: mode, convergence-aware schedule
  /// thresholds, TF32 ladder, per-angular-momentum cap.  The run's
  /// PrecisionGovernor is built from this via ExecutionContext::make_governor.
  PrecisionConfig precision{};
  /// >0: run exactly this many iterations with no convergence test
  /// (benchmark mode, matching the paper's fixed-iteration timing).
  int fixed_iterations = 0;
  double prune_threshold = 1e-11;       ///< Schwarz prune in pure-FP64 mode
  /// >0: run the liveness watchdog with this stall window (seconds).  A
  /// parallel region with no worker heartbeat for the window records a
  /// FaultKind::kWedged audit event and `robust.watchdog_stalls` metrics;
  /// it never kills the run (that is the deadline's job).  0 disables.
  double watchdog_seconds = 0.0;
  DurabilityOptions durability{};       ///< checkpoints + wall-clock budget
};

struct ScfIterationRecord {
  double energy = 0.0;
  double error = 0.0;      ///< DIIS commutator max-abs
  double seconds = 0.0;
  std::int64_t quartets_fp64 = 0;
  std::int64_t quartets_quantized = 0;
  std::int64_t quartets_pruned = 0;
  std::uint32_t fault_mask = 0;     ///< OR of fault_bit() for detected faults
  std::uint32_t recovery_mask = 0;  ///< OR of recovery_bit() for rungs taken
  int retries = 0;                  ///< in-iteration hard-fault rebuilds
  std::int64_t domain_faults = 0;   ///< Boys/Hermite domain guards tripped
};

struct ScfResult {
  bool converged = false;
  int iterations = 0;
  double energy = 0.0;          ///< total energy (electronic + nuclear)
  double e_nuclear = 0.0;
  double e_one_electron = 0.0;
  double e_coulomb = 0.0;
  double e_exact_exchange = 0.0;
  double e_xc = 0.0;
  VectorD orbital_energies;
  MatrixD density;
  MatrixD coefficients;
  MatrixD fock;
  std::vector<ScfIterationRecord> iteration_log;
  /// Modeled collective seconds, logical payload bytes, and verified-
  /// delivery resends accumulated over the run's Fock allreduces, the
  /// initial-guess broadcast, and iteration barriers.  All zero on one
  /// rank.
  double comm_seconds = 0.0;
  std::uint64_t comm_bytes = 0;
  std::int64_t comm_retries = 0;
  /// One observability record per iteration: the precision policy actually
  /// used, integral-class routing counts, per-stage timings, and resilience
  /// state.  Always filled (independent of tracing being on); the CLI prints
  /// it with --telemetry and obs::telemetry_json() serializes it.
  std::vector<obs::IterationTelemetry> telemetry;

  /// Overall health: ok unless the recovery ladder was exhausted and the run
  /// aborted on an unrecoverable fault.
  Status status;
  /// Terminal health classification — the CLI exit-code contract
  /// (exit_code_for in robust/status.hpp).  kDeadlineExceeded / kCancelled
  /// mark a graceful early stop with best-so-far results and (when
  /// checkpointing is configured) a resumable final checkpoint.
  Health health = Health::kOk;
  /// Iterations completed before this run started (restored runs); the
  /// absolute iteration count is resumed_from + iterations.
  int resumed_from = 0;
  /// Every recovery-ladder rung taken, in order, with the triggering fault.
  std::vector<RecoveryEvent> recovery_log;
  bool fp64_latched = false;          ///< rung 3 fired (quantization off)
  bool full_rebuild_latched = false;  ///< rung 4 fired (no incremental)

  /// True if any recovery rung fired during the run.
  [[nodiscard]] bool recovered() const { return !recovery_log.empty(); }

  /// Mean per-iteration wall time excluding the first iteration — the
  /// paper's Fig-8 metric.
  [[nodiscard]] double avg_iteration_seconds() const;
};

/// Runs the SCF to convergence (or for `fixed_iterations`).
/// Throws InputError (a std::invalid_argument) for inputs that cannot be
/// represented as a closed-shell RHF/RKS problem: non-positive or odd
/// electron counts, or a basis with fewer orbitals than occupied pairs.
///
/// `ctx` supplies the GEMM backend, thread pool, plan cache and communicator
/// of the run (normally the MakoEngine-owned context); null runs on a
/// default context of the call's own.
ScfResult run_scf(const Molecule& mol, const BasisSet& basis,
                  const ScfOptions& options = {},
                  const ExecutionContext* ctx = nullptr);

}  // namespace mako
