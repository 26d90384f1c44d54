#include "util/precision.hpp"

#include <algorithm>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "obs/trace.hpp"

namespace mako {

const char* to_string(Precision p) noexcept {
  switch (p) {
    case Precision::kFP64:
      return "FP64";
    case Precision::kFP32:
      return "FP32";
    case Precision::kTF32:
      return "TF32";
    case Precision::kFP16:
      return "FP16";
  }
  return "?";
}

std::uint16_t half_t::from_float(float value) noexcept {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));

  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::int32_t exponent =
      static_cast<std::int32_t>((f >> 23) & 0xFFu) - 127 + 15;
  std::uint32_t mantissa = f & 0x007FFFFFu;

  if (((f >> 23) & 0xFFu) == 0xFFu) {
    // Inf / NaN: preserve NaN payload top bit so NaNs stay NaNs.
    const std::uint16_t nan_payload = mantissa ? 0x0200u : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | nan_payload |
                                      (mantissa >> 13));
  }
  if (exponent >= 0x1F) {
    // Overflow -> signed infinity, as hardware FP16 conversion does.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exponent <= 0) {
    // Subnormal or underflow to zero.
    if (exponent < -10) {
      return static_cast<std::uint16_t>(sign);
    }
    mantissa |= 0x00800000u;  // implicit leading 1
    const int shift = 14 - exponent;
    std::uint32_t sub = mantissa >> shift;
    // Round to nearest even.
    const std::uint32_t rem = mantissa & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (sub & 1u))) {
      ++sub;
    }
    return static_cast<std::uint16_t>(sign | sub);
  }

  // Normal number: round mantissa from 23 to 10 bits, nearest even.
  std::uint32_t out =
      sign | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
  const std::uint32_t rem = mantissa & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (out & 1u))) {
    ++out;  // may carry into the exponent, which is the correct behaviour
  }
  return static_cast<std::uint16_t>(out);
}

float half_t::to_float_impl(std::uint16_t bits) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exponent = (bits >> 10) & 0x1Fu;
  std::uint32_t mantissa = bits & 0x03FFu;

  std::uint32_t f;
  if (exponent == 0) {
    if (mantissa == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x0400u) == 0);
      f = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
          ((m & 0x03FFu) << 13);
    }
  } else if (exponent == 0x1F) {
    f = sign | 0x7F800000u | (mantissa << 13);
  } else {
    f = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

// --- Vector staging ----------------------------------------------------------
//
// The vector forms are the scalar ones lane by lane: VCVTPD2PS rounds to
// nearest even as static_cast<float> does, and VCVTPS2PH with the explicit
// _MM_FROUND_TO_NEAREST_INT immediate matches half_t::from_float on every
// float, NaN payloads included (an exhaustive 2^32 sweep; test_quant_staging
// checks the boundaries and a seeded sample).  Scales multiply in double
// before any rounding, so no FMA or reordering enters.

namespace {

#if defined(__F16C__)
float round_half(float x) noexcept {
  return _cvtsh_ss(_cvtss_sh(x, _MM_FROUND_TO_NEAREST_INT));
}

__m256 round_half8(__m256 x) noexcept {
  return _mm256_cvtph_ps(_mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
}
#else
float round_half(float x) noexcept { return half_t(x).to_float(); }
#endif

}  // namespace

void quantize_to_float(const double* src, float* dst, std::size_t n,
                       Precision p, double scale) {
  MAKO_TRACE_SCOPE(obs::TraceCat::kQuant, "quantize_to_float");
  std::size_t i = 0;
  switch (p) {
    case Precision::kFP16: {
#if defined(__F16C__)
      const __m256d s = _mm256_set1_pd(scale);
      for (; i + 8 <= n; i += 8) {
        const __m128 lo =
            _mm256_cvtpd_ps(_mm256_mul_pd(s, _mm256_loadu_pd(src + i)));
        const __m128 hi =
            _mm256_cvtpd_ps(_mm256_mul_pd(s, _mm256_loadu_pd(src + i + 4)));
        _mm256_storeu_ps(dst + i, round_half8(_mm256_set_m128(hi, lo)));
      }
#endif
      for (; i < n; ++i) {
        dst[i] = round_half(static_cast<float>(scale * src[i]));
      }
      break;
    }
    case Precision::kTF32:
      for (; i < n; ++i) dst[i] = to_tf32(static_cast<float>(scale * src[i]));
      break;
    default:
      for (; i < n; ++i) dst[i] = static_cast<float>(scale * src[i]);
      break;
  }
}

void quantize_in_place(float* x, std::size_t n, Precision p) {
  MAKO_TRACE_SCOPE(obs::TraceCat::kQuant, "quantize_in_place");
  std::size_t i = 0;
  switch (p) {
    case Precision::kFP16:
#if defined(__AVX512F__)
      // The tail is a masked pass, so no scalar remainder is left.  (The
      // maskz forms also keep GCC 12 from flagging its own headers' unset
      // pass-through operands.)
      for (; i < n; i += 16) {
        const auto k = static_cast<__mmask16>(
            n - i >= 16 ? 0xFFFFu : (1u << (n - i)) - 1u);
        const __m256i h = _mm512_maskz_cvtps_ph(
            k, _mm512_maskz_loadu_ps(k, x + i), _MM_FROUND_TO_NEAREST_INT);
        _mm512_mask_storeu_ps(x + i, k, _mm512_maskz_cvtph_ps(k, h));
      }
#elif defined(__F16C__)
      for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(x + i, round_half8(_mm256_loadu_ps(x + i)));
      }
#endif
      for (; i < n; ++i) x[i] = round_half(x[i]);
      break;
    case Precision::kTF32:
      for (; i < n; ++i) x[i] = to_tf32(x[i]);
      break;
    default:  // FP32 and FP64 leave a float as it is
      break;
  }
}

double max_abs(const double* x, std::size_t n) {
  double m = 0.0;
  std::size_t i = 0;
#if defined(__AVX__)
  // VMAXPD returns its second operand unless the first is greater, so a NaN
  // lane of x leaves the running maximum alone, as std::max(m, NaN) does.
  // Every lane holds |x| >= +0, so folding the lanes in any order gives the
  // scalar scan's bits.
  const __m256d magnitude =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFF));
  __m256d vm = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    vm = _mm256_max_pd(_mm256_and_pd(magnitude, _mm256_loadu_pd(x + i)), vm);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vm);
  for (const double v : lanes) m = std::max(m, v);
#endif
  for (; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

}  // namespace mako
