#include "linalg/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

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

/// True when an (m, n, k) problem of `elem`-byte operands runs on the direct
/// kernel: its working set fits the innermost cache, so packing cannot pay.
inline bool l1_resident(std::size_t m, std::size_t n, std::size_t k,
                        std::size_t elem) {
  constexpr std::size_t kDirectLimit = 48 * 1024;
  return (m * k + k * n + m * n) * elem <= kDirectLimit;
}

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
  if (l1_resident(m, n, k, sizeof(T))) {
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

#if defined(__AVX512F__)
// --- 16-lane FP32 kernel of the quantized GEMMs -----------------------------
//
// gemm_quantized_ops runs here instead of on gemm_packed<float>, with
// bitwise the same result.  Every element's FP32 sum runs over p in order
// from +0, each step a multiply then an add (no FMA intrinsic, and
// -ffp-contract=off keeps the compiler from fusing).  gemm_packed restarts
// that sum every kBlockK unless the problem is L1-resident and adds the
// partial sums in order into a zeroed buffer; the tile below does the same
// in registers.  Adding the first partial sum to +0 is the identity, since
// a round-to-nearest sum started at +0 is never -0, so the buffer is not
// needed: the tile is widened straight into C as c = beta*c + alpha*sum,
// and the max |c| the next scale needs is taken on the way.  Operands are
// read in place (packing only changes where values sit) and column fringes
// are masked lanes, not a scalar loop.

constexpr int kQR = 4;  ///< rows of the FP32 tile, one 16-lane zmm each

/// Rows [i0, i0 + MR) x lanes `mask` of columns [j0, j0 + 16), summed in
/// partial sums of depth kc.
template <bool TA, int MR>
void quantized_tile(const float* a, std::size_t lda, const float* b,
                    std::size_t n, std::size_t k, std::size_t kc,
                    std::size_t i0, std::size_t j0, __mmask16 mask, double* c,
                    double alpha, double beta, __m512d& vmax) {
  __m512 acc[MR];
  for (int i = 0; i < MR; ++i) acc[i] = _mm512_setzero_ps();
  for (std::size_t p0 = 0; p0 < k; p0 += kc) {
    const std::size_t p1 = std::min(k, p0 + kc);
    __m512 part[MR];
    for (int i = 0; i < MR; ++i) part[i] = _mm512_setzero_ps();
    for (std::size_t p = p0; p < p1; ++p) {
      const __m512 bv = _mm512_maskz_loadu_ps(mask, b + p * n + j0);
      for (int i = 0; i < MR; ++i) {
        const float av = TA ? a[p * lda + i0 + i] : a[(i0 + i) * lda + p];
        part[i] =
            _mm512_add_ps(part[i], _mm512_mul_ps(_mm512_set1_ps(av), bv));
      }
    }
    for (int i = 0; i < MR; ++i) acc[i] = _mm512_add_ps(acc[i], part[i]);
  }
  const __m512d va = _mm512_set1_pd(alpha);
  const __m512d vb = _mm512_set1_pd(beta);
  for (int i = 0; i < MR; ++i) {
    double* crow = c + (i0 + i) * n + j0;
    // The maskz forms also keep GCC 12 from flagging its own headers'
    // unset pass-through operands.
    const __m512d acc_pd = _mm512_castps_pd(acc[i]);
    const __m256 half[2] = {
        _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, acc_pd, 0)),
        _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xF, acc_pd, 1))};
    for (int h = 0; h < 2; ++h) {
      const auto mh = static_cast<__mmask8>(mask >> (8 * h));
      if (mh == 0) break;
      const __m512d cv = _mm512_maskz_loadu_pd(mh, crow + 8 * h);
      const __m512d sum = _mm512_maskz_cvtps_pd(mh, half[h]);
      const __m512d r =
          _mm512_add_pd(_mm512_mul_pd(vb, cv), _mm512_mul_pd(va, sum));
      _mm512_mask_storeu_pd(crow + 8 * h, mh, r);
      // VMAXPD keeps its second operand unless the first is greater: a NaN
      // element leaves the maximum alone, as std::max(m, NaN) does.
      vmax = _mm512_mask_max_pd(vmax, mh, _mm512_abs_pd(r), vmax);
    }
  }
}

/// C = beta*C + alpha*(op(A)*B) over FP32 operands; returns max |C| (NaNs
/// skipped).
template <bool TA>
double quantized_gemm(const float* a, const float* b, double* c,
                      std::size_t m, std::size_t n, std::size_t k,
                      double alpha, double beta) {
  const std::size_t lda = TA ? m : k;
  const std::size_t kc = l1_resident(m, n, k, sizeof(float)) ? k : kBlockK;
  __m512d vmax = _mm512_setzero_pd();
  for (std::size_t j0 = 0; j0 < n; j0 += 16) {
    const std::size_t nr = std::min<std::size_t>(16, n - j0);
    const auto mask = static_cast<__mmask16>((1u << nr) - 1u);
    std::size_t i0 = 0;
    for (; i0 + kQR <= m; i0 += kQR) {
      quantized_tile<TA, kQR>(a, lda, b, n, k, kc, i0, j0, mask, c, alpha,
                              beta, vmax);
    }
    switch (m - i0) {
      case 3:
        quantized_tile<TA, 3>(a, lda, b, n, k, kc, i0, j0, mask, c, alpha,
                              beta, vmax);
        break;
      case 2:
        quantized_tile<TA, 2>(a, lda, b, n, k, kc, i0, j0, mask, c, alpha,
                              beta, vmax);
        break;
      case 1:
        quantized_tile<TA, 1>(a, lda, b, n, k, kc, i0, j0, mask, c, alpha,
                              beta, vmax);
        break;
      default:
        break;
    }
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, vmax);
  double mx = 0.0;
  for (const double v : lanes) mx = std::max(mx, v);
  return mx;
}
#endif  // __AVX512F__

}  // namespace

void gemm_fp64_ex(const double* a, bool trans_a, const double* b, bool trans_b,
                  double* c, std::size_t m, std::size_t n, std::size_t k,
                  double alpha, double beta) {
  obs::TraceSpan span(obs::TraceCat::kGemm, "gemm_fp64_ex");
  annotate_gemm_span(span, m, n, k);
  MAKO_METRIC_COUNT("gemm.calls", 1);
  gemm_packed<double>(a, trans_a, b, trans_b, c, m, n, k, alpha, beta);
}

double gemm_quantized_ops(const float* qa, bool trans_a, const float* qb,
                          bool trans_b, double* c, std::size_t m,
                          std::size_t n, std::size_t k, double alpha,
                          double beta) {
  obs::TraceSpan span(obs::TraceCat::kGemm, "gemm_quantized_ops");
  annotate_gemm_span(span, m, n, k);
  MAKO_METRIC_COUNT("gemm.calls", 1);
#if defined(__AVX512F__)
  if (!trans_b) {
    return trans_a ? quantized_gemm<true>(qa, qb, c, m, n, k, alpha, beta)
                   : quantized_gemm<false>(qa, qb, c, m, n, k, alpha, beta);
  }
#endif
  // Stage one of dual-stage accumulation: FP32 multiply/accumulate over the
  // pre-rounded operands, into a buffer gemm_packed zeroes (beta = 0).
  static thread_local std::vector<float> acc;
  acc.resize(m * n);
  gemm_packed<float>(qa, trans_a, qb, trans_b, acc.data(), m, n, k, 1.0f,
                     0.0f);
  // Stage two: widen into the FP64 destination.
  for (std::size_t i = 0; i < m * n; ++i) {
    c[i] = beta * c[i] + alpha * static_cast<double>(acc[i]);
  }
  return max_abs(c, m * n);
}

}  // namespace mako
