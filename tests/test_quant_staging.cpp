// QuantMako's staging is bitwise the scalar path.  The vector roundings
// (quantize_to_float, quantize_in_place), the vector max_abs, the 16-lane
// FP32 GEMM with its fused max, and the engine's fused P/T staging are each
// compared bit for bit with a scalar oracle written here: half_t / to_tf32
// per element, a std::max scan, and FP32 sums in the documented order.
// Whatever the build's vector width (AVX-512F, F16C only, or neither), the
// expected bits are the same.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "compilermako/registry.hpp"
#include "kernelmako/batched_eri.hpp"
#include "linalg/backend.hpp"
#include "util/rng.hpp"

namespace mako {
namespace {

constexpr Precision kReduced[] = {Precision::kFP32, Precision::kTF32,
                                  Precision::kFP16};

/// The scalar staging rule: scale * x in double, to float, then through p.
float scalar_stage(double x, double scale, Precision p) {
  const float f = static_cast<float>(scale * x);
  switch (p) {
    case Precision::kFP16:
      return half_t(f).to_float();
    case Precision::kTF32:
      return to_tf32(f);
    default:
      return f;
  }
}

/// Equal bits, or both NaN (payloads may differ between NaN encodings).
bool same_float(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", u);
  return buf;
}

/// Runs both vector stagings over `src` and checks every element against
/// scalar_stage; returns the number of mismatches.
int count_staging_mismatches(const std::vector<double>& src, double scale,
                             Precision p) {
  const std::size_t n = src.size();
  std::vector<float> vec(n), in_place(n);
  quantize_to_float(src.data(), vec.data(), n, p, scale);
  for (std::size_t i = 0; i < n; ++i) {
    in_place[i] = static_cast<float>(scale * src[i]);
  }
  quantize_in_place(in_place.data(), n, p);
  int bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float want = scalar_stage(src[i], scale, p);
    if (!same_float(vec[i], want) || !same_float(in_place[i], want)) {
      if (++bad <= 5) {
        ADD_FAILURE() << to_string(p) << " x=" << src[i] << " scale=" << scale
                      << " want " << bits_of(want) << " to_float "
                      << bits_of(vec[i]) << " in_place "
                      << bits_of(in_place[i]);
      }
    }
  }
  return bad;
}

/// Values at and around every binary16 rounding boundary, ties to even at
/// several exponents (for the float step and the half step), and the
/// specials.
std::vector<double> boundary_values() {
  std::vector<double> v;
  const auto around = [&](double x) {
    v.push_back(x);
    v.push_back(std::nextafter(x, 0.0));
    v.push_back(std::nextafter(x, 1e300));
    const float f = static_cast<float>(x);
    v.push_back(std::nextafter(f, 0.0f));
    v.push_back(std::nextafter(f, 1e30f));
  };
  around(std::ldexp(1.0, -25));  // half the smallest subnormal
  around(std::ldexp(1.0, -24));  // smallest subnormal
  around(std::ldexp(1.0, -14));  // smallest normal
  around(std::ldexp(1.0, -15));
  around(std::ldexp(3.0, -26));  // 1.5 x half the smallest subnormal
  around(65504.0);               // largest finite
  around(65519.99);              // rounds down to 65504
  around(65520.0);               // rounds up to infinity
  around(1.0);
  around(2048.0);
  // Exact ties to even: halfway between two binary16 values (10-bit
  // mantissa, so the tie bit is 2^-11 of the exponent), and halfway
  // between two floats (the double -> float step), odd and even neighbours.
  for (const int e : {-24, -20, -14, -13, -1, 0, 5, 10, 15}) {
    for (const int k : {0, 1, 2, 3, 1022, 1023}) {
      if (e <= -14) {  // subnormal half: ulp 2^-24
        v.push_back(std::ldexp(2.0 * k + 1.0, -25));
      } else {
        v.push_back(std::ldexp(1.0 + (2.0 * k + 1.0) / 2048.0, e));
      }
      v.push_back(std::ldexp(1.0 + (2.0 * k + 1.0) / 16777216.0, e));
    }
  }
  const std::size_t finite = v.size();
  for (std::size_t i = 0; i < finite; ++i) v.push_back(-v[i]);
  v.push_back(0.0);
  v.push_back(-0.0);
  v.push_back(std::numeric_limits<double>::infinity());
  v.push_back(-std::numeric_limits<double>::infinity());
  v.push_back(std::numeric_limits<double>::quiet_NaN());
  v.push_back(-std::numeric_limits<double>::quiet_NaN());
  v.push_back(std::numeric_limits<double>::denorm_min());
  v.push_back(std::numeric_limits<double>::max());
  return v;
}

TEST(QuantStagingTest, SeededSampleMatchesScalarBitForBit) {
  // 2^20 doubles log-uniform over [2^-27, 2^17), either sign: the whole
  // binary16 range, its subnormals and both overflow sides.
  Rng rng(20240611);
  std::vector<double> src(std::size_t{1} << 20);
  for (double& x : src) {
    const double mag = std::ldexp(rng.uniform(1.0, 2.0),
                                  static_cast<int>(rng.uniform_int(-27, 16)));
    x = rng.uniform(0.0, 1.0) < 0.5 ? -mag : mag;
  }
  for (const Precision p : kReduced) {
    for (const double scale : {1.0, 0.7390851332151607, 3.0e-3}) {
      EXPECT_EQ(count_staging_mismatches(src, scale, p), 0)
          << to_string(p) << " scale " << scale;
    }
  }
}

TEST(QuantStagingTest, BoundariesTiesAndSpecialsMatchScalar) {
  const std::vector<double> v = boundary_values();
  for (const Precision p : kReduced) {
    EXPECT_EQ(count_staging_mismatches(v, 1.0, p), 0) << to_string(p);
    EXPECT_EQ(count_staging_mismatches(v, 0.5, p), 0) << to_string(p);
  }
  // Spot checks of the rule itself, independent of half_t.
  std::vector<float> out(1);
  const auto fp16 = [&](double x) {
    quantize_to_float(&x, out.data(), 1, Precision::kFP16);
    return out[0];
  };
  EXPECT_EQ(fp16(65519.99), 65504.0f);
  EXPECT_TRUE(std::isinf(fp16(65520.0)));
  EXPECT_EQ(fp16(std::ldexp(1.0, -25)), 0.0f);  // tie to even (zero)
  EXPECT_EQ(fp16(std::ldexp(3.0, -26)), std::ldexp(1.0f, -24));
  EXPECT_EQ(fp16(1.0 + 1.0 / 2048.0), 1.0f);  // tie to even, down
  EXPECT_EQ(fp16(1.0 + 3.0 / 2048.0), 1.0f + 2.0f / 1024.0f);  // and up
  EXPECT_TRUE(std::signbit(fp16(-0.0)));
  EXPECT_TRUE(std::isnan(fp16(std::numeric_limits<double>::quiet_NaN())));
}

TEST(QuantStagingTest, TailsAndUnalignedStartsTouchOnlyTheirRange) {
  const std::vector<double> pool = boundary_values();
  constexpr float kSentinel = 12345.678f;
  for (const Precision p : kReduced) {
    for (std::size_t n = 0; n <= 33; ++n) {
      for (std::size_t start = 0; start < 8; ++start) {
        std::vector<double> src(start + n + 8);
        for (std::size_t i = 0; i < src.size(); ++i) {
          src[i] = pool[(i * 7 + n * 3 + start) % pool.size()];
        }
        std::vector<float> dst(src.size(), kSentinel);
        std::vector<float> in_place(src.size(), kSentinel);
        for (std::size_t i = start; i < start + n; ++i) {
          in_place[i] = static_cast<float>(src[i]);
        }
        quantize_to_float(src.data() + start, dst.data() + start, n, p);
        quantize_in_place(in_place.data() + start, n, p);
        for (std::size_t i = 0; i < src.size(); ++i) {
          const bool inside = i >= start && i < start + n;
          const float want = inside ? scalar_stage(src[i], 1.0, p) : kSentinel;
          ASSERT_TRUE(same_float(dst[i], want))
              << to_string(p) << " n=" << n << " start=" << start
              << " i=" << i;
          ASSERT_TRUE(same_float(in_place[i], want))
              << to_string(p) << " n=" << n << " start=" << start
              << " i=" << i;
        }
      }
    }
  }
}

double scalar_max_abs(const double* x, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

TEST(QuantStagingTest, MaxAbsSkipsNanLikeTheScalarScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(7);
  for (std::size_t n = 0; n <= 33; ++n) {
    for (std::size_t start = 0; start < 4; ++start) {
      std::vector<double> x(start + n);
      for (double& v : x) v = rng.uniform(-2.0, 2.0);
      for (std::size_t nan_at = start; nan_at <= start + n; ++nan_at) {
        std::vector<double> y = x;
        if (nan_at < y.size()) y[nan_at] = (nan_at % 2 == 0) ? nan : -nan;
        const double got = max_abs(y.data() + start, n);
        ASSERT_TRUE(same_double(got, scalar_max_abs(y.data() + start, n)))
            << "n=" << n << " start=" << start << " nan_at=" << nan_at;
        ASSERT_FALSE(std::isnan(got));
      }
    }
  }
  const std::vector<double> all_nan(9, nan);
  EXPECT_TRUE(same_double(max_abs(all_nan.data(), all_nan.size()), 0.0));
  const std::vector<double> mixed{-0.0, nan, -inf, 3.0, nan, -0.0};
  EXPECT_EQ(max_abs(mixed.data(), mixed.size()), inf);
  EXPECT_TRUE(same_double(max_abs(mixed.data(), 1), 0.0));  // +0 from -0
}

// --- The quantized GEMM's order contract ------------------------------------

/// Scalar oracle of the mixed GEMM: each element's FP32 sum runs over p
/// in order from +0, restarting every 256 unless the FP32 problem fits
/// 48 KiB, with the partial sums added in order from +0; then
/// c = beta*c + alpha*sum.  Returns the scalar max |c| scan.
double oracle_gemm(const std::vector<float>& a, bool ta,
                   const std::vector<float>& b, std::vector<double>& c,
                   std::size_t m, std::size_t n, std::size_t k, double alpha,
                   double beta) {
  const bool l1 = (m * k + k * n + m * n) * sizeof(float) <= 48 * 1024;
  const std::size_t kc = l1 ? std::max<std::size_t>(k, 1) : 256;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float total = 0.0f;
      for (std::size_t p0 = 0; p0 < k; p0 += kc) {
        float part = 0.0f;
        for (std::size_t p = p0; p < std::min(k, p0 + kc); ++p) {
          const float av = ta ? a[p * m + i] : a[i * k + p];
          part += av * b[p * n + j];
        }
        total += part;
      }
      c[i * n + j] = beta * c[i * n + j] + alpha * static_cast<double>(total);
    }
  }
  return scalar_max_abs(c.data(), c.size());
}

std::vector<float> rounded_operand(std::size_t n, Rng& rng, Precision p) {
  std::vector<double> x(n);
  for (double& v : x) {
    const double r = rng.uniform(-1.0, 1.0);
    // Some exact zeros and exact cancellations, so sums of zero arise.
    v = r > 0.8 ? 0.0 : (r < -0.8 ? 0.5 : r);
  }
  std::vector<float> q(n);
  quantize_to_float(x.data(), q.data(), n, p);
  return q;
}

TEST(QuantStagingTest, QuantizedGemmFollowsTheOrderContractBitForBit) {
  struct Shape {
    std::size_t m, n, k;
  };
  // Row and lane fringes, an empty reduction, L1-resident and larger
  // problems, and reductions deeper than one 256-step block.
  const Shape shapes[] = {{1, 1, 1},    {1, 1, 0},     {3, 5, 7},
                          {4, 16, 9},   {5, 17, 33},   {2, 33, 40},
                          {9, 9, 300},  {25, 35, 40},  {49, 84, 84},
                          {17, 40, 700}, {6, 3, 2000}};
  Rng rng(99);
  for (const Precision p : {Precision::kFP16, Precision::kTF32}) {
    for (const Shape& s : shapes) {
      const auto a = rounded_operand(s.m * s.k, rng, p);
      const auto b = rounded_operand(s.k * s.n, rng, p);
      for (const bool ta : {false, true}) {
        for (const double beta : {0.0, -0.75}) {
          std::vector<double> c0(s.m * s.n);
          for (double& v : c0) v = beta == 0.0 ? 0.0 : rng.uniform(-1, 1);
          if (!c0.empty() && beta != 0.0) c0[0] = -0.0;
          auto got = c0;
          auto want = c0;
          const double alpha = -1.5;
          const double got_max = GemmBackend::instance().mixed(
              a.data(), ta, b.data(), false, got.data(), s.m, s.n, s.k,
              alpha, beta);
          const double want_max =
              oracle_gemm(a, ta, b, want, s.m, s.n, s.k, alpha, beta);
          ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(double)))
              << to_string(p) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k << " ta=" << ta << " beta=" << beta;
          ASSERT_TRUE(same_double(got_max, want_max))
              << to_string(p) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k;
        }
      }
    }
  }
}

TEST(QuantStagingTest, QuantizedGemmMaxSkipsNan) {
  // One infinite operand element turns one output row into +-inf and NaN
  // (inf * 0); the returned max is the scan's: inf, never NaN.
  const std::size_t m = 3, n = 18, k = 4;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f);
  a[1 * k + 2] = std::numeric_limits<float>::infinity();
  b[2 * n + 5] = 0.0f;
  std::vector<double> c(m * n, 0.0);
  const double mx = GemmBackend::instance().mixed(
      a.data(), false, b.data(), false, c.data(), m, n, k, 1.0, 0.0);
  EXPECT_TRUE(std::isnan(c[1 * n + 5]));
  EXPECT_TRUE(same_double(mx, scalar_max_abs(c.data(), c.size())));
  EXPECT_TRUE(std::isinf(mx));

  // A NaN below the maximum in the same column (inf - inf) must not wipe it.
  const std::vector<float> a2{40.0f, 0.0f, std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  const std::vector<float> b2{1.0f, 1.0f};
  std::vector<double> c2(2, 0.0);
  const double mx2 = GemmBackend::instance().mixed(
      a2.data(), false, b2.data(), false, c2.data(), 2, 1, 2, -0.5, 0.0);
  EXPECT_TRUE(std::isnan(c2[1]));
  EXPECT_EQ(mx2, 20.0);
}

// --- The engine's fused P/T staging -----------------------------------------

/// The quantized route of compute_batch spelled out with the scalar pieces:
/// an FP64 P scaled by 1 / max|r| and rounded per element, the order-contract
/// GEMM, then T scaled by 1 / max|T| and rounded per element.
std::vector<std::vector<double>> scalar_quantized_batch(
    const EriClassKey& key, std::span<const QuartetRef> batch, Precision p) {
  const EriClassPlan plan(key);
  const std::size_t nhb = plan.nhb, nhk = plan.nhk, nht = plan.nht;
  const std::size_t nsb = plan.nsb, nsk = plan.nsk;
  const std::size_t kab = key.kab, kcd = key.kcd;
  const std::size_t mb = kab * nhb, mk = kcd * nhk;
  const double two_pi_2_5 = 2.0 * std::pow(3.14159265358979323846, 2.5);
  RIntegralWorkspace ws;
  std::vector<std::vector<double>> out;
  for (const QuartetRef& ref : batch) {
    PairOperand bo, ko;
    build_pair_operand(*ref.a, *ref.b, *plan.sph_bra, bo);
    build_pair_operand(*ref.c, *ref.d, *plan.sph_ket, ko);
    std::vector<double> r(kab * kcd * nht);
    for (std::size_t jp = 0; jp < kab; ++jp) {
      for (std::size_t kp = 0; kp < kcd; ++kp) {
        const PrimPair& x = bo.prims[jp];
        const PrimPair& y = ko.prims[kp];
        const double pref = two_pi_2_5 / (x.p * y.p * std::sqrt(x.p + y.p));
        const double alpha = x.p * y.p / (x.p + y.p);
        const double pq[3] = {x.center[0] - y.center[0],
                              x.center[1] - y.center[1],
                              x.center[2] - y.center[2]};
        compute_r_integrals_batch(plan.ltot, 1, &alpha, &pq[0], &pq[1],
                                  &pq[2], &pref,
                                  r.data() + (jp * kcd + kp) * nht, nht, ws);
      }
    }
    const double r_max = scalar_max_abs(r.data(), r.size());
    const double s_pq = r_max > 0.0 ? 1.0 / r_max : 1.0;
    std::vector<float> qp(mb * mk);
    for (std::size_t jp = 0; jp < kab; ++jp) {
      for (std::size_t hp = 0; hp < nhb; ++hp) {
        for (std::size_t kp = 0; kp < kcd; ++kp) {
          for (std::size_t hq = 0; hq < nhk; ++hq) {
            const double v = s_pq * plan.sign_cd[hq] *
                             r[(jp * kcd + kp) * nht +
                               plan.combined[hp * nhk + hq]];
            qp[(jp * nhb + hp) * mk + kp * nhk + hq] = scalar_stage(v, 1.0, p);
          }
        }
      }
    }
    std::vector<float> qb(bo.e.size()), qk(ko.e.size());
    for (std::size_t i = 0; i < qb.size(); ++i) {
      qb[i] = scalar_stage(bo.e[i], bo.scale, p);
    }
    for (std::size_t i = 0; i < qk.size(); ++i) {
      qk[i] = scalar_stage(ko.e[i], ko.scale, p);
    }
    std::vector<double> t(nsb * mk, 0.0);
    const double t_max = oracle_gemm(qb, true, qp, t, nsb, mk, mb,
                                     1.0 / (bo.scale * s_pq), 0.0);
    const double s_t = t_max > 0.0 ? 1.0 / t_max : 1.0;
    std::vector<float> qt(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      qt[i] = scalar_stage(t[i], s_t, p);
    }
    std::vector<double> o(nsb * nsk, 0.0);
    oracle_gemm(qt, false, qk, o, nsb, nsk, mk, 1.0 / (s_t * ko.scale), 0.0);
    out.push_back(std::move(o));
  }
  return out;
}

TEST(QuantStagingTest, QuantizedBatchMatchesScalarStagingBitForBit) {
  const EriClassKey keys[] = {
      {0, 0, 0, 0, 1, 1}, {0, 0, 0, 0, 6, 4}, {1, 0, 1, 1, 3, 1},
      {1, 1, 1, 1, 4, 4}, {2, 1, 2, 0, 1, 2}, {2, 2, 2, 2, 1, 1},
      {3, 3, 1, 1, 5, 1}, {3, 2, 3, 1, 1, 1}};
  for (const Precision p : {Precision::kFP16, Precision::kTF32}) {
    KernelConfig config;
    config.gemm.precision = p;
    const BatchedEriEngine engine(config);
    for (const EriClassKey& key : keys) {
      const CalibrationBatch batch = make_calibration_batch(key, 3, 11);
      const std::span<const QuartetRef> quartets(batch.quartets);
      std::vector<std::vector<double>> got;
      engine.compute_batch(key, quartets, got);
      const auto want = scalar_quantized_batch(key, quartets, p);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t q = 0; q < got.size(); ++q) {
        ASSERT_EQ(got[q].size(), want[q].size());
        EXPECT_EQ(0, std::memcmp(got[q].data(), want[q].data(),
                                 got[q].size() * sizeof(double)))
            << to_string(p) << " " << key.name() << " quartet " << q;
      }
    }
  }
}

}  // namespace
}  // namespace mako
