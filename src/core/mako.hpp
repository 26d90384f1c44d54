// Mako public API.
//
// MakoEngine is the top-level entry point a downstream user touches: give it
// a molecule and options (basis, functional, engine, quantization,
// precision), get back converged energies with the per-stage performance
// report the paper's artifact prints (total wall-clock time + average SCF
// iteration time excluding the first).
//
//   mako::MakoEngine engine({.basis = "def2-tzvp", .functional = "b3lyp",
//                            .quantization = true});
//   mako::MakoReport report = engine.compute_energy(molecule);
//   std::cout << report.summary();
#pragma once

#include <string>

#include "chem/molecule.hpp"
#include "core/execution_context.hpp"
#include "scf/scf.hpp"

namespace mako {

/// Top-level options.
struct MakoOptions {
  std::string basis = "sto-3g";
  std::string functional = "hf";   ///< "hf", "lda", "blyp", "b3lyp"
  EriEngineKind engine = EriEngineKind::kMako;
  /// GEMM backend name ("reference", "blocked", "blocked+quantized");
  /// "" resolves MAKO_BACKEND, then the built-in default.
  std::string backend;
  /// Rank count for the execution context's Communicator (mako --ranks);
  /// 0 resolves $MAKO_RANKS, then 1.  Must be a power of two in
  /// [1, kMaxCommRanks]; results are bit-identical for every supported rank
  /// count (see communicator.hpp).
  int ranks = 0;
  /// Named cluster topology for the comm cost model (mako --cluster):
  /// "default", "single-node", "ethernet"; "" means "default".
  std::string cluster;
  bool quantization = false;       ///< QuantMako scheduling
  /// Precision-governance mode ("adaptive", "fp64", "fp32", "tf32", "fp16");
  /// "" resolves MAKO_PRECISION, then "adaptive".  "adaptive" follows the
  /// convergence-aware schedule (quantized work only when `quantization` is
  /// on); "fp64" forces exact FP64 everywhere (bit-identical across
  /// backends); the fixed formats pin the quantized-kernel storage format
  /// and imply quantization.  Parsed by scf_options_from; an unknown name
  /// throws InputError (FaultKind::kInvalidInput).
  std::string precision;
  /// Enable the dynamic precision ladder (FP16 -> TF32 -> FP64): the
  /// governor steps the quantized format up to TF32 when convergence error
  /// drops below the ladder switch threshold or a soft fault fires.
  bool precision_ladder = false;
  GridSpec grid = GridSpec::coarse();
  int max_iterations = 60;
  int fixed_iterations = 0;        ///< >0: benchmark mode
  double convergence = 1e-7;       ///< SCF energy threshold (paper setting)
  std::size_t batch_size = 32;
  /// Checkpoint/restart + wall-clock budget (see DurabilityOptions): write
  /// crash-consistent checkpoints, resume bit-identically, stop gracefully
  /// when the budget expires.
  DurabilityOptions durability{};
  /// >0: liveness watchdog stall window (seconds); see ResilienceOptions.
  double watchdog_seconds = 0.0;
};

/// Expands top-level MakoOptions into the full ScfOptions the SCF driver
/// takes.  Shared by MakoEngine and the BatchScheduler so a job run in a
/// batch sees exactly the options a solo engine run would (the cross-job
/// determinism tests depend on this being the single expansion point).
[[nodiscard]] ScfOptions scf_options_from(const MakoOptions& options);

/// Result bundle.
struct MakoReport {
  ScfResult scf;
  double total_seconds = 0.0;
  std::size_t nbf = 0;
  std::size_t num_shells = 0;
  std::string backend;  ///< GEMM backend the run executed on
  int ranks = 1;        ///< communicator size the run executed with

  /// Artifact-style text report (energies + the two timing metrics).
  [[nodiscard]] std::string summary() const;
};

/// The Mako quantum chemistry engine.
class MakoEngine {
 public:
  explicit MakoEngine(MakoOptions options = {});

  /// Single-point energy computation.
  MakoReport compute_energy(const Molecule& mol);

  [[nodiscard]] const MakoOptions& options() const noexcept {
    return options_;
  }
  /// The execution environment every compute path of this engine runs in
  /// (GEMM backend, thread pool, plan cache, fault hooks).
  [[nodiscard]] const ExecutionContext& context() const noexcept {
    return context_;
  }

 private:
  MakoOptions options_;
  ExecutionContext context_;
};

}  // namespace mako
