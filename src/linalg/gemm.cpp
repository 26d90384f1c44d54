#include "linalg/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mako {
namespace {

// Per-call span for the GEMM firehose category (off in the default trace
// mask; enabled via --trace-all).  Args are formatted only while recording.
inline void annotate_gemm_span(obs::TraceSpan& span, std::size_t m,
                               std::size_t n, std::size_t k) {
  if (span.active()) {
    char args[64];
    std::snprintf(args, sizeof args, "\"m\":%zu,\"n\":%zu,\"k\":%zu", m, n, k);
    span.set_args(args);
  }
}

// --- Packed register-blocked path -------------------------------------------
//
// BLIS-style structure: B is packed into contiguous NR-wide panels and A into
// MR-tall panels (the transpose of either operand is absorbed here, so callers
// never materialize one), then an MR x NR micro-kernel keeps the C fragment in
// registers across the entire K reduction.  This is the host counterpart of a
// CUTLASS threadblock staging tiles through shared memory into an MMA-shaped
// register fragment.

constexpr int kMR = 4;  ///< micro-kernel rows (register fragment height)
constexpr int kNR = 8;  ///< micro-kernel cols (register fragment width)
constexpr std::size_t kBlockM = 96;   ///< A panel rows per pass
constexpr std::size_t kBlockK = 256;  ///< reduction depth per pass
constexpr std::size_t kBlockN = 1024; ///< B panel cols per pass

/// op(A)(r, c) for a dense row-major operand with optional transpose.
template <typename T>
inline T op_at(const T* x, bool trans, std::size_t ld, std::size_t r,
               std::size_t c) {
  return trans ? x[c * ld + r] : x[r * ld + c];
}

/// Packs an (mc x kc) block of alpha*op(A) into MR-tall panels, zero-padding
/// the fringe so the micro-kernel always runs full register tiles.
template <typename T>
void pack_a_block(const T* a, bool trans, std::size_t lda, std::size_t i0,
                  std::size_t p0, std::size_t mc, std::size_t kc, T alpha,
                  T* dst) {
  for (std::size_t ir = 0; ir < mc; ir += kMR) {
    const std::size_t mr = std::min<std::size_t>(kMR, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t i = 0; i < mr; ++i) {
        dst[i] = alpha * op_at(a, trans, lda, i0 + ir + i, p0 + p);
      }
      for (std::size_t i = mr; i < kMR; ++i) dst[i] = T{0};
      dst += kMR;
    }
  }
}

/// Packs a (kc x nc) block of op(B) into NR-wide panels, zero-padded.
template <typename T>
void pack_b_block(const T* b, bool trans, std::size_t ldb, std::size_t p0,
                  std::size_t j0, std::size_t kc, std::size_t nc, T* dst) {
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t nr = std::min<std::size_t>(kNR, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < nr; ++j) {
        dst[j] = op_at(b, trans, ldb, p0 + p, j0 + jr + j);
      }
      for (std::size_t j = nr; j < kNR; ++j) dst[j] = T{0};
      dst += kNR;
    }
  }
}

/// MR x NR micro-kernel: C(mr, nr) += Ap * Bp over kc, accumulators held in
/// a register-resident fragment for the whole reduction.
template <typename T>
void micro_kernel(std::size_t kc, const T* ap, const T* bp, T* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr) {
  T acc[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* brow = bp + p * kNR;
    const T* arow = ap + p * kMR;
    for (int i = 0; i < kMR; ++i) {
      const T av = arow[i];
      for (int j = 0; j < kNR; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (std::size_t i = 0; i < mr; ++i) {
    T* crow = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
  }
}

template <typename T>
struct PackArena {
  std::vector<T> a, b;
};

template <typename T>
PackArena<T>& pack_arena() {
  static thread_local PackArena<T> arena;
  return arena;
}

/// Direct register-blocked kernel for L1-resident problems: the C fragment
/// stays in registers across the whole K loop, operands are read in place
/// (the A transpose becomes MR strided streams — cheap at this scale), and
/// no packing cost is paid.  `alpha` is folded into the writeback.
template <typename T, bool TA>
void gemm_direct(const T* a, std::size_t lda, const T* b, std::size_t ldb,
                 T* c, std::size_t ldc, std::size_t m, std::size_t n,
                 std::size_t k, T alpha) {
  const auto at = [&](std::size_t i, std::size_t p) -> T {
    return TA ? a[p * lda + i] : a[i * lda + p];
  };
  std::size_t ir = 0;
  for (; ir + kMR <= m; ir += kMR) {
    std::size_t jr = 0;
    for (; jr + kNR <= n; jr += kNR) {
      T acc[kMR][kNR] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const T* brow = b + p * ldb + jr;
        T av[kMR];
        for (int i = 0; i < kMR; ++i) av[i] = at(ir + i, p);
        for (int i = 0; i < kMR; ++i) {
          for (int j = 0; j < kNR; ++j) acc[i][j] += av[i] * brow[j];
        }
      }
      for (int i = 0; i < kMR; ++i) {
        T* crow = c + (ir + i) * ldc + jr;
        for (int j = 0; j < kNR; ++j) crow[j] += alpha * acc[i][j];
      }
    }
    if (jr < n) {  // column fringe
      const std::size_t nr = n - jr;
      T acc[kMR][kNR] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const T* brow = b + p * ldb + jr;
        T av[kMR];
        for (int i = 0; i < kMR; ++i) av[i] = at(ir + i, p);
        for (int i = 0; i < kMR; ++i) {
          for (std::size_t j = 0; j < nr; ++j) acc[i][j] += av[i] * brow[j];
        }
      }
      for (int i = 0; i < kMR; ++i) {
        T* crow = c + (ir + i) * ldc + jr;
        for (std::size_t j = 0; j < nr; ++j) crow[j] += alpha * acc[i][j];
      }
    }
  }
  for (; ir < m; ++ir) {  // row fringe: 1 x NR blocking
    std::size_t jr = 0;
    for (; jr < n; jr += kNR) {
      const std::size_t nr = std::min<std::size_t>(kNR, n - jr);
      T acc[kNR] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const T av = at(ir, p);
        const T* brow = b + p * ldb + jr;
        for (std::size_t j = 0; j < nr; ++j) acc[j] += av * brow[j];
      }
      T* crow = c + ir * ldc + jr;
      for (std::size_t j = 0; j < nr; ++j) crow[j] += alpha * acc[j];
    }
  }
}

template <typename T>
void gemm_packed(const T* a, bool trans_a, const T* b, bool trans_b, T* c,
                 std::size_t m, std::size_t n, std::size_t k, T alpha,
                 T beta) {
  if (beta == T{0}) {
    std::fill(c, c + m * n, T{0});
  } else if (beta != T{1}) {
    for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (alpha == T{0} || m == 0 || n == 0 || k == 0) return;

  const std::size_t lda = trans_a ? m : k;
  const std::size_t ldb = trans_b ? k : n;

  // L1-resident problems skip packing entirely: panel staging only pays for
  // itself once the working set spills the innermost cache.
  const std::size_t footprint = (m * k + k * n + m * n) * sizeof(T);
  constexpr std::size_t kDirectLimit = 48 * 1024;
  if (footprint <= kDirectLimit) {
    const T* b_eff = b;
    std::size_t ldb_eff = ldb;
    if (trans_b) {
      // Stage B^T through scratch once; the direct kernel then streams rows.
      PackArena<T>& arena = pack_arena<T>();
      arena.b.resize(k * n);
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t j = 0; j < n; ++j) arena.b[p * n + j] = b[j * ldb + p];
      }
      b_eff = arena.b.data();
      ldb_eff = n;
    }
    if (trans_a) {
      gemm_direct<T, true>(a, lda, b_eff, ldb_eff, c, n, m, n, k, alpha);
    } else {
      gemm_direct<T, false>(a, lda, b_eff, ldb_eff, c, n, m, n, k, alpha);
    }
    return;
  }
  PackArena<T>& arena = pack_arena<T>();
  const std::size_t mc_max = std::min(kBlockM, m);
  const std::size_t kc_max = std::min(kBlockK, k);
  const std::size_t nc_max = std::min(kBlockN, n);
  // Round panel heights/widths up to full register tiles (zero-padded).
  const auto round_up = [](std::size_t v, std::size_t q) {
    return (v + q - 1) / q * q;
  };
  arena.a.resize(round_up(mc_max, kMR) * kc_max);
  arena.b.resize(kc_max * round_up(nc_max, kNR));

  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t nc = std::min(kBlockN, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t kc = std::min(kBlockK, k - p0);
      pack_b_block(b, trans_b, ldb, p0, j0, kc, nc, arena.b.data());
      for (std::size_t i0 = 0; i0 < m; i0 += kBlockM) {
        const std::size_t mc = std::min(kBlockM, m - i0);
        pack_a_block(a, trans_a, lda, i0, p0, mc, kc, alpha, arena.a.data());
        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min<std::size_t>(kNR, nc - jr);
          const T* bp = arena.b.data() + (jr / kNR) * kc * kNR;
          for (std::size_t ir = 0; ir < mc; ir += kMR) {
            const std::size_t mr = std::min<std::size_t>(kMR, mc - ir);
            const T* ap = arena.a.data() + (ir / kMR) * kc * kMR;
            micro_kernel(kc, ap, bp, c + (i0 + ir) * n + j0 + jr, n, mr, nr);
          }
        }
      }
    }
  }
}

}  // namespace

void gemm_fp64_ex(const double* a, bool trans_a, const double* b, bool trans_b,
                  double* c, std::size_t m, std::size_t n, std::size_t k,
                  double alpha, double beta) {
  obs::TraceSpan span(obs::TraceCat::kGemm, "gemm_fp64_ex");
  annotate_gemm_span(span, m, n, k);
  MAKO_METRIC_COUNT("gemm.calls", 1);
  gemm_packed<double>(a, trans_a, b, trans_b, c, m, n, k, alpha, beta);
}

void quantize_to_float(const double* src, float* dst, std::size_t n,
                       Precision p) {
  MAKO_TRACE_SCOPE(obs::TraceCat::kQuant, "quantize_to_float");
  MAKO_METRIC_COUNT("quant.calls", 1);
  MAKO_METRIC_COUNT("quant.elements", static_cast<std::int64_t>(n));
  switch (p) {
    case Precision::kFP16:
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = half_t(static_cast<float>(src[i])).to_float();
      break;
    case Precision::kTF32:
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = to_tf32(static_cast<float>(src[i]));
      break;
    default:
      for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]);
      break;
  }
}

void gemm_quantized_ops(const float* qa, bool trans_a, const float* qb,
                        bool trans_b, double* c, std::size_t m, std::size_t n,
                        std::size_t k, double alpha, double beta) {
  obs::TraceSpan span(obs::TraceCat::kGemm, "gemm_quantized_ops");
  annotate_gemm_span(span, m, n, k);
  MAKO_METRIC_COUNT("gemm.calls", 1);
  MAKO_METRIC_COUNT("gemm.quantized_calls", 1);
  // Stage one of dual-stage accumulation: FP32 multiply/accumulate over the
  // pre-rounded operands.
  static thread_local std::vector<float> acc;
  acc.assign(m * n, 0.0f);
  gemm_packed<float>(qa, trans_a, qb, trans_b, acc.data(), m, n, k, 1.0f,
                     0.0f);
  // Stage two: widen into the FP64 destination.
  for (std::size_t i = 0; i < m * n; ++i) {
    c[i] = beta * c[i] + alpha * static_cast<double>(acc[i]);
  }
}

}  // namespace mako
