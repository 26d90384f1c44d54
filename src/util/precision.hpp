// Software emulation of the reduced-precision arithmetic formats used by AI
// accelerators (IEEE binary16 "FP16" and NVIDIA's TF32).  QuantMako relies on
// these to reproduce tensor-core numerics bit-accurately on the host: the
// rounding, dynamic range and overflow behaviour of the emulated formats match
// the hardware formats, so all accuracy experiments are meaningful even though
// the arithmetic itself runs on CPU.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace mako {

/// Numeric precision modes available throughout the Mako pipeline.
/// These mirror the precision column of Table 1 in the paper.
enum class Precision {
  kFP64,  ///< IEEE double; the quantum-chemistry reference precision.
  kFP32,  ///< IEEE single.
  kTF32,  ///< FP32 with the mantissa truncated to 10 explicit bits.
  kFP16,  ///< IEEE binary16 with FP32 accumulation (dual-stage).
};

/// Human-readable name of a precision mode.
const char* to_string(Precision p) noexcept;

/// IEEE binary16 value emulated in software.
///
/// Storage is the 16-bit pattern; conversions use round-to-nearest-even, the
/// rounding mode tensor cores implement.  Arithmetic is performed by widening
/// to float, matching the FP16-multiply / FP32-accumulate contract of MMA
/// instructions.
class half_t {
 public:
  constexpr half_t() noexcept : bits_(0) {}
  explicit half_t(float value) noexcept : bits_(from_float(value)) {}
  explicit half_t(double value) noexcept
      : bits_(from_float(static_cast<float>(value))) {}

  /// Reinterprets a raw 16-bit pattern as a half.
  static constexpr half_t from_bits(std::uint16_t bits) noexcept {
    half_t h;
    h.bits_ = bits;
    return h;
  }

  [[nodiscard]] constexpr std::uint16_t bits() const noexcept { return bits_; }
  [[nodiscard]] float to_float() const noexcept { return to_float_impl(bits_); }
  explicit operator float() const noexcept { return to_float(); }
  explicit operator double() const noexcept { return to_float(); }

  [[nodiscard]] bool is_nan() const noexcept {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  [[nodiscard]] bool is_inf() const noexcept {
    return (bits_ & 0x7FFFu) == 0x7C00u;
  }

  /// Largest finite binary16 magnitude (65504).
  static constexpr float max() noexcept { return 65504.0f; }
  /// Smallest positive normal binary16 value (2^-14).
  static constexpr float min_normal() noexcept { return 6.103515625e-5f; }

  friend bool operator==(half_t a, half_t b) noexcept {
    return a.to_float() == b.to_float();
  }

 private:
  static std::uint16_t from_float(float value) noexcept;
  static float to_float_impl(std::uint16_t bits) noexcept;

  std::uint16_t bits_;
};

/// Rounds a float to TF32 (10 explicit mantissa bits) using
/// round-to-nearest-even, the behaviour of Ampere tensor cores when fed FP32
/// operands in TF32 mode.  Exponent range is unchanged (8 bits, like FP32).
inline float to_tf32(float value) noexcept {
  std::uint32_t u;
  std::memcpy(&u, &value, sizeof(u));
  // Keep 10 explicit mantissa bits: round bit is bit 12, sticky below.
  const std::uint32_t round_bias = 0x00000FFFu + ((u >> 13) & 1u);
  u += round_bias;
  u &= 0xFFFFE000u;
  float out;
  std::memcpy(&out, &u, sizeof(out));
  return out;
}

/// Quantizes a double through the given precision and back.  This is the
/// "storage" rounding used when staging operands for a low-precision GEMM.
inline double quantize_roundtrip(double x, Precision p) noexcept {
  switch (p) {
    case Precision::kFP64:
      return x;
    case Precision::kFP32:
      return static_cast<double>(static_cast<float>(x));
    case Precision::kTF32:
      return static_cast<double>(to_tf32(static_cast<float>(x)));
    case Precision::kFP16:
      return static_cast<double>(half_t(static_cast<float>(x)).to_float());
  }
  return x;
}

/// Operand staging of the reduced-precision GEMMs: dst[i] is scale * src[i],
/// formed in double, rounded to float and then through `p`, i.e.
/// float(quantize_roundtrip(scale * src[i], p)) bit for bit.
///
/// FP16 rounds eight lanes at a time through F16C (VCVTPS2PH with an
/// explicit round-to-nearest-even immediate, so MXCSR does not matter) when
/// the build targets it; half_t is the fallback for builds without F16C and
/// for the tails, and the oracle of both.
void quantize_to_float(const double* src, float* dst, std::size_t n,
                       Precision p, double scale = 1.0);

/// Rounds n floats in place through `p`: x[i] = float(quantize_roundtrip(
/// x[i], p)).  FP16 runs 16 lanes at a time under AVX-512F, 8 under F16C.
void quantize_in_place(float* x, std::size_t n, Precision p);

/// max |x[i]| over n doubles, 0 when n == 0.  NaNs are skipped, as in the
/// scalar scan `m = std::max(m, std::fabs(x[i]))` from m = 0.
double max_abs(const double* x, std::size_t n);

/// Bytes used to store one element at the given precision.
constexpr std::size_t bytes_per_element(Precision p) noexcept {
  switch (p) {
    case Precision::kFP64:
      return 8;
    case Precision::kFP32:
    case Precision::kTF32:
      return 4;
    case Precision::kFP16:
      return 2;
  }
  return 8;
}

}  // namespace mako
