// Numerical-health fault taxonomy and recovery-action vocabulary.
//
// The QuantMako schedule deliberately runs most early-SCF work at FP16/TF32
// and only tightens to FP64 near convergence — exactly the regime where
// quantization noise, DIIS stagnation and incremental-Fock error accumulation
// can stall or diverge a run.  This header defines the shared language the
// sentinels (src/robust/audit.hpp), the SCF recovery ladder (src/scf/scf.cpp)
// and the fault-injection harness (src/robust/fault_injector.hpp) speak.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace mako {

/// Everything the numerical-health sentinels can detect.  Values are stable
/// (used as bit positions in per-iteration fault masks and stored in
/// checkpointed recovery logs), so each is spelled out; 9 belonged to the
/// retired subspace-diagonalizer stall and stays unused.
enum class FaultKind : std::uint32_t {
  kNone = 0,                 ///< healthy
  kNonFinite = 1,            ///< NaN/Inf observed in a matrix or scalar
  kAsymmetry = 2,            ///< J/K/Fock lost its required symmetry
  kEigenDisorder = 3,        ///< eigenvalues non-finite or not ascending
  kOrthonormalityLoss = 4,   ///< eigenvector block no longer orthonormal
  kDomainError = 5,          ///< Boys/Hermite argument outside its domain
  kDivergence = 6,           ///< SCF energy rose N iterations in a row
  kOscillation = 7,          ///< DIIS error oscillating without net progress
  kStagnation = 8,           ///< DIIS error flat above the convergence target
  kCommCorruption = 10,      ///< collective payload failed its checksum
  kIncrementalDrift = 11,    ///< delta-density Fock accumulation drifted
  kInvalidInput = 12,        ///< caller's molecule/basis/options rejected
  kDeadlineExceeded = 13,    ///< wall-clock budget expired before convergence
  kCancelled = 14,           ///< cooperative cancellation (signal or API)
  kWedged = 15,              ///< no worker heartbeat in the watchdog window
  kCheckpointCorrupt = 16,   ///< checkpoint magic/CRC/structure invalid
  kCheckpointMismatch = 17,  ///< checkpoint is for a different problem
  kCheckpointError = 18,     ///< checkpoint I/O failed (write, fsync, rename)
};

/// Bit for `kind` in a per-iteration fault mask.
[[nodiscard]] constexpr std::uint32_t fault_bit(FaultKind kind) noexcept {
  return kind == FaultKind::kNone
             ? 0u
             : (1u << (static_cast<std::uint32_t>(kind) - 1u));
}

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

/// The staged recovery ladder, in escalation order.  Rungs are applied
/// lowest-first; rungs kPrecisionEscalation and above latch for the rest of
/// the run.  kCommRetry is the Communicator's local rung (checksum-verify +
/// retry with backoff) and does not participate in the SCF ladder ordering.
/// Values are stable (recovery-mask bits, checkpointed recovery logs); 4
/// belonged to the retired diagonalizer fallback and stays unused.
enum class RecoveryAction : std::uint32_t {
  kNone = 0,
  kDiisReset = 1,            ///< rung 1: drop the DIIS history
  kDamping = 2,              ///< rung 2: static density damping + level shift
  kPrecisionEscalation = 3,  ///< rung 3: force FP64, latch quantization off
  kFockRebuild = 5,          ///< rung 4: full (non-incremental) Fock rebuilds
  kCommRetry = 6,            ///< comm: resend after checksum mismatch/drop
  kAbort = 7,                ///< ladder exhausted; run stopped with a fault
};

[[nodiscard]] constexpr std::uint32_t recovery_bit(RecoveryAction a) noexcept {
  return a == RecoveryAction::kNone
             ? 0u
             : (1u << (static_cast<std::uint32_t>(a) - 1u));
}

[[nodiscard]] const char* to_string(RecoveryAction action) noexcept;

/// Lightweight status: a fault kind plus a human-actionable message.
/// Healthy statuses carry no message (and no allocation).
class Status {
 public:
  Status() = default;

  [[nodiscard]] static Status ok() { return Status(); }
  [[nodiscard]] static Status fault(FaultKind kind, std::string message) {
    Status s;
    s.kind_ = kind;
    s.message_ = std::move(message);
    return s;
  }

  [[nodiscard]] bool is_ok() const noexcept {
    return kind_ == FaultKind::kNone;
  }
  [[nodiscard]] FaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  FaultKind kind_ = FaultKind::kNone;
  std::string message_;
};

/// Terminal health of a run, in increasing order of severity.  This is the
/// contract between the SCF driver and the process exit code: a scheduler
/// script must be able to tell "converged" from "hit the wall-clock budget,
/// resume me from the checkpoint" without parsing logs.
enum class Health : std::uint32_t {
  kOk = 0,            ///< converged, no recovery needed
  kRecovered,         ///< converged after recovery-ladder intervention
  kNotConverged,      ///< ran to the iteration cap without converging
  kFault,             ///< stopped on an unrecoverable numerical fault
  kDeadlineExceeded,  ///< stopped early: --max-seconds budget expired
  kCancelled,         ///< stopped early: SIGINT/SIGTERM or API cancellation
};

[[nodiscard]] const char* to_string(Health health) noexcept;

/// Process exit code for a run with the given terminal health.  0 stays
/// "fully healthy"; 1 and 2 are reserved for the CLI's generic-exception and
/// usage-error paths, so health codes start at 3.
[[nodiscard]] constexpr int exit_code_for(Health health) noexcept {
  switch (health) {
    case Health::kOk:
      return 0;
    case Health::kRecovered:
      return 3;
    case Health::kNotConverged:
      return 4;
    case Health::kFault:
      return 5;
    case Health::kDeadlineExceeded:
      return 6;
    case Health::kCancelled:
      return 7;
  }
  return 5;
}

/// One recovery-ladder activation, surfaced through ScfResult::recovery_log.
struct RecoveryEvent {
  int iteration = 0;
  FaultKind fault = FaultKind::kNone;
  RecoveryAction action = RecoveryAction::kNone;
  std::string detail;
};

/// Input-validation failure carrying the fault taxonomy.  Derives from
/// std::invalid_argument so existing call sites (and tests) that catch the
/// standard type keep working.
class InputError : public std::invalid_argument {
 public:
  InputError(FaultKind kind, const std::string& message)
      : std::invalid_argument(message), kind_(kind) {}

  [[nodiscard]] FaultKind kind() const noexcept { return kind_; }

 private:
  FaultKind kind_;
};

}  // namespace mako
