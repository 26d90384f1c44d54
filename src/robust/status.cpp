#include "robust/status.hpp"

namespace mako {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kNonFinite:
      return "non-finite";
    case FaultKind::kAsymmetry:
      return "asymmetry";
    case FaultKind::kEigenDisorder:
      return "eigen-disorder";
    case FaultKind::kOrthonormalityLoss:
      return "orthonormality-loss";
    case FaultKind::kDomainError:
      return "domain-error";
    case FaultKind::kDivergence:
      return "divergence";
    case FaultKind::kOscillation:
      return "oscillation";
    case FaultKind::kStagnation:
      return "stagnation";
    case FaultKind::kCommCorruption:
      return "comm-corruption";
    case FaultKind::kIncrementalDrift:
      return "incremental-drift";
    case FaultKind::kInvalidInput:
      return "invalid-input";
    case FaultKind::kDeadlineExceeded:
      return "deadline-exceeded";
    case FaultKind::kCancelled:
      return "cancelled";
    case FaultKind::kWedged:
      return "wedged";
    case FaultKind::kCheckpointCorrupt:
      return "checkpoint-corrupt";
    case FaultKind::kCheckpointMismatch:
      return "checkpoint-mismatch";
    case FaultKind::kCheckpointError:
      return "checkpoint-error";
  }
  return "?";
}

const char* to_string(Health health) noexcept {
  switch (health) {
    case Health::kOk:
      return "ok";
    case Health::kRecovered:
      return "recovered";
    case Health::kNotConverged:
      return "not-converged";
    case Health::kFault:
      return "fault";
    case Health::kDeadlineExceeded:
      return "deadline-exceeded";
    case Health::kCancelled:
      return "cancelled";
  }
  return "?";
}

const char* to_string(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kNone:
      return "none";
    case RecoveryAction::kDiisReset:
      return "diis-reset";
    case RecoveryAction::kDamping:
      return "damping+level-shift";
    case RecoveryAction::kPrecisionEscalation:
      return "precision-escalation";
    case RecoveryAction::kFockRebuild:
      return "full-fock-rebuild";
    case RecoveryAction::kCommRetry:
      return "comm-retry";
    case RecoveryAction::kAbort:
      return "abort";
  }
  return "?";
}

}  // namespace mako
