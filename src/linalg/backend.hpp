// Pluggable GEMM backend layer — the stable matmul seam of the paper's
// thesis (Section 2.3): every chemistry stage above this header expresses its
// work as batched GEMMs against an abstract backend, so swapping the kernel
// implementation (naive loops, register-blocked host kernels, and later
// SIMD/GPU/distributed variants) never touches chemistry code.  This mirrors
// how Mako inherits CUTLASS/cuBLAS scalability by construction.
//
// The layer has three parts:
//   * GemmBackend     — the kernel contract: fp64 and mixed entry points
//                       plus a capability descriptor.  Entry points
//                       are NVI wrappers that bump the per-backend dispatch
//                       counter ("gemm.dispatch.<name>") before forwarding.
//   * GemmBackendRegistry — process-wide name -> backend table with an
//                       "active" default selected by name (MakoOptions::
//                       backend, `mako --backend=`, or the MAKO_BACKEND
//                       environment variable).
//   * Matrix wrappers — gemm()/matmul() convenience over MatrixD, routed
//                       through an explicit backend or the active default.
//
// Thread-safety contract: backends are immutable after registration and all
// entry points are safe to call concurrently from thread-pool workers
// (per-call scratch is thread_local inside the kernels).  Accumulation
// precision guarantees are per entry point: fp64 accumulates at FP64; mixed
// multiplies operands already rounded to their storage precision
// (quantize_to_float) and accumulates at FP32, then widens into the FP64
// destination (stage one of dual-stage accumulation).  Operands are dense
// row-major with no alignment requirement beyond the element type's.
//
// This header is the only linalg GEMM surface includable outside src/linalg/;
// direct includes of linalg/gemm.hpp elsewhere are rejected by
// scripts/check_gemm_includes.sh (wired into ctest).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/precision.hpp"

namespace mako::obs {
class Counter;
}  // namespace mako::obs

namespace mako {

/// Per-call GEMM configuration.  Only the precision varies: every backend
/// picks its own blocking.
struct GemmConfig {
  Precision precision = Precision::kFP64;
};

/// FLOP count of an (m,n,k) GEMM (2*m*n*k).
constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Rounds a double buffer to the storage format of `p`, widened to float —
/// the operand staging of the reduced-precision GEMM paths.
void quantize_to_float(const double* src, float* dst, std::size_t n,
                       Precision p);

/// What a backend can do, beyond the universal fp64 contract.
struct GemmCapabilities {
  /// True when the backend executes reduced-precision (FP16/TF32) multiplies
  /// natively with FP32 accumulation (the tensor-core contract).  Quantized
  /// work must not be routed at backends without it: the precision governor
  /// plans FP64 for them (see ExecutionContext::quantized_execution_allowed)
  /// and the ERI engine runs its GEMMs at FP64.
  bool quantized = false;
  /// One-line human description, printed by `mako --help`-adjacent surfaces.
  std::string description;
};

/// Abstract multi-precision GEMM backend.  All matrices are dense row-major;
/// C = alpha * op(A) * op(B) + beta * C with op(X) = X or X^T.
///
/// The public entry points are non-virtual: they bump this backend's
/// dispatch counter ("gemm.dispatch.<name>" in the global metrics registry,
/// alive in every build configuration) and forward to the do_* hooks.
class GemmBackend {
 public:
  virtual ~GemmBackend();

  GemmBackend(const GemmBackend&) = delete;
  GemmBackend& operator=(const GemmBackend&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const GemmCapabilities& capabilities() const noexcept {
    return caps_;
  }

  /// FP64 GEMM with FP64 accumulation.
  void fp64(const double* a, bool trans_a, const double* b, bool trans_b,
            double* c, std::size_t m, std::size_t n, std::size_t k,
            double alpha = 1.0, double beta = 0.0) const;

  /// Mixed-precision GEMM over operands already rounded to the target
  /// storage format (see quantize_to_float): multiplies at FP32, accumulates
  /// at FP32, and widens alpha*(op(A)*op(B)) into the FP64 destination —
  /// stage one of dual-stage accumulation.  This is the reuse-aware path:
  /// invariant operands are quantized once (e.g. per shell pair), not once
  /// per call.
  void mixed(const float* qa, bool trans_a, const float* qb, bool trans_b,
             double* c, std::size_t m, std::size_t n, std::size_t k,
             double alpha, double beta) const;

  /// Lifetime dispatch count of this backend (mirrors the metrics counter).
  [[nodiscard]] std::int64_t dispatches() const noexcept;

 protected:
  GemmBackend(std::string name, GemmCapabilities caps);

  virtual void do_fp64(const double* a, bool trans_a, const double* b,
                       bool trans_b, double* c, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, double beta) const = 0;
  virtual void do_mixed(const float* qa, bool trans_a, const float* qb,
                        bool trans_b, double* c, std::size_t m, std::size_t n,
                        std::size_t k, double alpha, double beta) const = 0;

 private:
  std::string name_;
  GemmCapabilities caps_;
  obs::Counter* dispatches_;  ///< "gemm.dispatch.<name>" (never null)
};

/// Process-wide backend registry.  The two built-ins ("reference" and
/// "blocked+quantized") self-register on first access; downstream
/// code may register additional backends (SIMD, GPU, distributed shims) at
/// startup.  All methods are thread-safe.
class GemmBackendRegistry {
 public:
  /// Built-in default backend name ("blocked+quantized").
  static constexpr const char* kDefaultName = "blocked+quantized";

  static GemmBackendRegistry& instance();

  /// Registers a backend under its name().  Throws InputError on duplicates.
  void register_backend(std::unique_ptr<GemmBackend> backend);

  /// nullptr when no backend of that name is registered.
  [[nodiscard]] const GemmBackend* find(std::string_view name) const;

  /// Resolves a backend by name; "" resolves to the MAKO_BACKEND environment
  /// override when set, else the built-in default.  Throws InputError naming
  /// the unknown backend and listing the registered ones.
  [[nodiscard]] const GemmBackend& resolve(std::string_view name) const;

  /// Registered backend names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The process-wide default backend used by the gemm()/matmul() wrappers
  /// and by engines not bound to an ExecutionContext.  Initialized from
  /// MAKO_BACKEND (or the built-in default) on first use.
  [[nodiscard]] const GemmBackend& active() const;
  void set_active(const GemmBackend& backend) noexcept;

 private:
  GemmBackendRegistry();
  struct Impl;
  Impl* impl_;  ///< leaky (same rationale as Tracer::instance())
};

/// Shorthand: GemmBackendRegistry::instance().resolve(name).
[[nodiscard]] const GemmBackend& resolve_gemm_backend(
    std::string_view name = {});

// --- Matrix convenience wrappers (FP64) -------------------------------------

enum class Trans { kNo, kYes };

/// General C = alpha * op(A) * op(B) + beta * C over Matrix<double>, routed
/// through `backend` (or the active backend when null).
void gemm(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb, MatrixD& c,
          double alpha = 1.0, double beta = 0.0,
          const GemmBackend* backend = nullptr);

/// Returns A * B.
MatrixD matmul(const MatrixD& a, const MatrixD& b,
               const GemmBackend* backend = nullptr);

/// Returns op(A) * op(B).
MatrixD matmul(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb,
               const GemmBackend* backend = nullptr);

}  // namespace mako
