// The GEMM seam of the paper's thesis (Section 2.3): every chemistry stage
// above this header expresses its work as GEMMs through one GemmBackend, so
// every stage runs on the one matmul path the hardware runs fastest.  This
// mirrors how Mako inherits CUTLASS/cuBLAS scalability by construction.
//
// The layer has two parts:
//   * GemmBackend     — the kernel entry points: fp64 and mixed.  There is
//                       exactly one instance (GemmBackend::instance(), which
//                       ExecutionContext::backend() returns); both entry
//                       points forward to the packed kernels in
//                       linalg/gemm.cpp, which count "gemm.calls".
//   * Matrix wrappers — gemm()/matmul() convenience over MatrixD on the same
//                       FP64 kernel.
//
// Thread-safety contract: the backend is stateless and every entry point is
// safe to call concurrently from thread-pool workers (per-call scratch is
// thread_local inside the kernels).  Accumulation precision guarantees are
// per entry point: fp64 accumulates at FP64; mixed multiplies operands
// already rounded to their storage precision (quantize_to_float) and
// accumulates at FP32, then widens into the FP64 destination (stage one of
// dual-stage accumulation).  Operands are dense row-major with no alignment
// requirement beyond the element type's.
//
// This header is the only linalg GEMM surface includable outside src/linalg/;
// direct includes of linalg/gemm.hpp elsewhere are rejected by
// scripts/check_gemm_includes.sh (wired into ctest).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "util/precision.hpp"

namespace mako {

/// Per-call GEMM configuration.  Only the precision varies: the kernels pick
/// their own blocking.
struct GemmConfig {
  Precision precision = Precision::kFP64;
};

/// FLOP count of an (m,n,k) GEMM (2*m*n*k).
constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// The multi-precision GEMM backend.  All matrices are dense row-major;
/// C = alpha * op(A) * op(B) + beta * C with op(X) = X or X^T.
class GemmBackend {
 public:
  /// The one backend of the process.
  [[nodiscard]] static const GemmBackend& instance() noexcept;

  GemmBackend(const GemmBackend&) = delete;
  GemmBackend& operator=(const GemmBackend&) = delete;

  /// FP64 GEMM with FP64 accumulation.
  void fp64(const double* a, bool trans_a, const double* b, bool trans_b,
            double* c, std::size_t m, std::size_t n, std::size_t k,
            double alpha = 1.0, double beta = 0.0) const;

  /// Mixed-precision GEMM over operands already rounded to the target
  /// storage format (see quantize_to_float): multiplies at FP32, accumulates
  /// at FP32, and widens alpha*(op(A)*op(B)) into the FP64 destination —
  /// stage one of dual-stage accumulation.  This is the reuse-aware path:
  /// invariant operands are quantized once (e.g. per shell pair), not once
  /// per call.  Returns max |C| over the result (NaNs skipped), the scale
  /// input of a chained GEMM, at no extra pass.
  double mixed(const float* qa, bool trans_a, const float* qb, bool trans_b,
               double* c, std::size_t m, std::size_t n, std::size_t k,
               double alpha, double beta) const;

 private:
  GemmBackend() = default;
};

// --- Matrix convenience wrappers (FP64) -------------------------------------

enum class Trans { kNo, kYes };

/// General C = alpha * op(A) * op(B) + beta * C over Matrix<double>.
void gemm(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb, MatrixD& c,
          double alpha = 1.0, double beta = 0.0);

/// Returns A * B.
MatrixD matmul(const MatrixD& a, const MatrixD& b);

/// Returns op(A) * op(B).
MatrixD matmul(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb);

}  // namespace mako
