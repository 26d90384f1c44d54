#include "integrals/hermite.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "basis/spherical.hpp"
#include "integrals/boys.hpp"
#include "robust/audit.hpp"

namespace mako {

static_assert(HermiteBasis::kMaxOrder == kBoysMaxM,
              "HermiteBasis::get serves every order the Boys table does");

HermiteBasis::HermiteBasis(int l) : l_(l) {
  lut_.assign((l + 1) * (l + 1) * (l + 1), -1);
  for (int n = 0; n <= l; ++n) {
    for (int t = n; t >= 0; --t) {
      for (int u = n - t; u >= 0; --u) {
        const int v = n - t - u;
        lut_[(t * (l + 1) + u) * (l + 1) + v] =
            static_cast<int>(comps_.size());
        comps_.push_back({t, u, v});
      }
    }
  }

  steps_.resize(comps_.size());
  for (std::size_t h = 0; h < comps_.size(); ++h) {
    std::array<int, 3> lower = comps_[h];
    RecursionStep& step = steps_[h];
    step.order = lower[0] + lower[1] + lower[2];
    step.row = rows_;
    rows_ += l - step.order;
    if (h == 0) continue;
    step.axis = (lower[0] > 0) ? 0 : (lower[1] > 0 ? 1 : 2);
    --lower[step.axis];
    step.idx1 = index(lower[0], lower[1], lower[2]);
    step.coeff = static_cast<double>(lower[step.axis]);
    if (lower[step.axis] > 0) {
      --lower[step.axis];
      step.idx2 = index(lower[0], lower[1], lower[2]);
    }
  }
}

const HermiteBasis& HermiteBasis::get(int l) {
  static std::array<std::once_flag, kMaxOrder + 1> once;
  static std::array<std::optional<HermiteBasis>, kMaxOrder + 1> table;
  if (l < 0 || l > kMaxOrder) {
    throw std::out_of_range("HermiteBasis::get: order " + std::to_string(l) +
                            " outside [0, " + std::to_string(kMaxOrder) + "]");
  }
  std::call_once(once[l], [l] { table[l].emplace(l); });
  return *table[l];
}

void Hermite1D::reset(int imax, int jmax, double xpa, double xpb, double p,
                      double e00) {
  imax_ = imax;
  jmax_ = jmax;
  const int tdim = imax + jmax + 1;
  data_.assign((imax + 1) * (jmax + 1) * tdim, 0.0);
  const double inv2p = 0.5 / p;

  auto at = [&](int i, int j, int t) -> double& {
    return data_[(i * (jmax_ + 1) + j) * tdim + t];
  };
  auto val = [&](int i, int j, int t) -> double {
    if (t < 0 || t > i + j || i < 0 || j < 0) return 0.0;
    return data_[(i * (jmax_ + 1) + j) * tdim + t];
  };

  at(0, 0, 0) = e00;
  // Raise i with j = 0:
  //   E_t^{i+1,0} = inv2p E_{t-1}^{i,0} + xpa E_t^{i,0} + (t+1) E_{t+1}^{i,0}
  for (int i = 0; i < imax; ++i) {
    for (int t = 0; t <= i + 1; ++t) {
      at(i + 1, 0, t) = inv2p * val(i, 0, t - 1) + xpa * val(i, 0, t) +
                        (t + 1) * val(i, 0, t + 1);
    }
  }
  // Raise j for every i:
  //   E_t^{i,j+1} = inv2p E_{t-1}^{i,j} + xpb E_t^{i,j} + (t+1) E_{t+1}^{i,j}
  for (int i = 0; i <= imax; ++i) {
    for (int j = 0; j < jmax; ++j) {
      for (int t = 0; t <= i + j + 1; ++t) {
        at(i, j + 1, t) = inv2p * val(i, j, t - 1) + xpb * val(i, j, t) +
                          (t + 1) * val(i, j, t + 1);
      }
    }
  }
}

void make_prim_pairs(const Vec3& a_center, const std::vector<double>& a_exps,
                     const std::vector<double>& a_coefs, const Vec3& b_center,
                     const std::vector<double>& b_exps,
                     const std::vector<double>& b_coefs, PrimPair* out) {
  const double ab2 = distance(a_center, b_center) * distance(a_center, b_center);
  for (std::size_t i = 0; i < a_exps.size(); ++i) {
    for (std::size_t j = 0; j < b_exps.size(); ++j) {
      PrimPair pp;
      pp.alpha = a_exps[i];
      pp.beta = b_exps[j];
      pp.p = pp.alpha + pp.beta;
      const double mu = pp.alpha * pp.beta / pp.p;
      pp.kab = std::exp(-mu * ab2);
      for (int ax = 0; ax < 3; ++ax) {
        pp.center[ax] =
            (pp.alpha * a_center[ax] + pp.beta * b_center[ax]) / pp.p;
      }
      pp.coef = a_coefs[i] * b_coefs[j];
      *out++ = pp;
    }
  }
}

std::vector<PrimPair> make_prim_pairs(const Vec3& a_center,
                                      const std::vector<double>& a_exps,
                                      const std::vector<double>& a_coefs,
                                      const Vec3& b_center,
                                      const std::vector<double>& b_exps,
                                      const std::vector<double>& b_coefs) {
  std::vector<PrimPair> pairs(a_exps.size() * b_exps.size());
  make_prim_pairs(a_center, a_exps, a_coefs, b_center, b_exps, b_coefs,
                  pairs.data());
  return pairs;
}

void build_e_sparse(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, ESparse& out) {
  const HermiteBasis& hb = HermiteBasis::get(la + lb);
  const double p = alpha + beta;
  Vec3 pc;
  for (int ax = 0; ax < 3; ++ax) {
    pc[ax] = (alpha * a[ax] + beta * b[ax]) / p;
  }
  const double mu = alpha * beta / p;

  // Per-axis 1D tables; the exponential prefactor factorizes across axes.
  // Thread-local instances are rebuilt in place (storage reused), keeping the
  // batched engine's steady-state hot path allocation-free.
  static thread_local Hermite1D e1d[3];
  for (int ax = 0; ax < 3; ++ax) {
    const double xab = a[ax] - b[ax];
    e1d[ax].reset(la, lb, pc[ax] - a[ax], pc[ax] - b[ax], p,
                  std::exp(-mu * xab * xab));
  }

  // E(h, col) can be nonzero only where each Hermite component stays within
  // the column's summed Cartesian power on that axis.
  out.col_start.clear();
  out.h.clear();
  out.v.clear();
  for (int ia = 0; ia < ncart(la); ++ia) {
    int ax_a, ay_a, az_a;
    cart_components(la, ia, ax_a, ay_a, az_a);
    for (int ib = 0; ib < ncart(lb); ++ib) {
      int ax_b, ay_b, az_b;
      cart_components(lb, ib, ax_b, ay_b, az_b);
      out.col_start.push_back(static_cast<int>(out.h.size()));
      for (int t = 0; t <= ax_a + ax_b; ++t) {
        const double ex = coef * e1d[0](ax_a, ax_b, t);
        for (int u = 0; u <= ay_a + ay_b; ++u) {
          const double exy = ex * e1d[1](ay_a, ay_b, u);
          for (int v = 0; v <= az_a + az_b; ++v) {
            out.h.push_back(hb.index(t, u, v));
            out.v.push_back(exy * e1d[2](az_a, az_b, v));
          }
        }
      }
    }
  }
  out.col_start.push_back(static_cast<int>(out.h.size()));
}

void build_e_matrix(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, MatrixD& out) {
  const int nh = nherm(la + lb);
  const int ncab = ncart(la) * ncart(lb);
  if (out.rows() != static_cast<std::size_t>(nh) ||
      out.cols() != static_cast<std::size_t>(ncab)) {
    out.resize(nh, ncab);
  }
  out.fill(0.0);
  static thread_local ESparse e;
  build_e_sparse(la, lb, a, b, alpha, beta, coef, e);
  for (int col = 0; col < ncab; ++col) {
    for (int i = e.col_start[col]; i < e.col_start[col + 1]; ++i) {
      out(e.h[i], col) = e.v[i];
    }
  }
}

namespace {

/// One recursion step on W lanes:
///   dst = pq * r1 (+ coeff * r2 when r2 is given).
/// A function of its own so the __restrict parameters let the lane loops
/// vectorize (inlined into the step loop, they do not).
template <std::size_t W>
void recur_lanes(const double* __restrict pq, const double* __restrict r1,
                 const double* __restrict r2, double coeff,
                 double* __restrict dst) {
  if (r2 == nullptr) {
    for (std::size_t i = 0; i < W; ++i) dst[i] = pq[i] * r1[i];
  } else {
    for (std::size_t i = 0; i < W; ++i) dst[i] = pq[i] * r1[i] + coeff * r2[i];
  }
}

/// One chunk of compute_r_integrals_batch on W lanes, the first `cn` of
/// which are items (the rest are zero padding).  `rows` holds the packed
/// recursion storage, [recursion_rows x W].
template <std::size_t W>
void r_integral_chunk(const HermiteBasis& hb, std::size_t cn,
                      const double* alpha, const double* pqx,
                      const double* pqy, const double* pqz, const double* pref,
                      double* out, std::size_t out_stride, double* rows) {
  const int l = hb.order();
  const std::vector<HermiteBasis::RecursionStep>& prog = hb.recursion();
  alignas(64) double pq[3][W];
  alignas(64) double scale[W];
  alignas(64) double v[W];
  std::array<bool, W> poisoned{};
  bool any_poisoned = false;
  double fm[kBoysMaxM + 1];

  // Gather, then seed R^{(m)}_{000} = (-2 alpha)^m F_m(T).  m = 0 goes
  // straight to the output; the rest to the packed rows.
  for (std::size_t i = 0; i < W; ++i) {
    const bool item = i < cn;
    double a = item ? alpha[i] : 0.0;
    pq[0][i] = item ? pqx[i] : 0.0;
    pq[1][i] = item ? pqy[i] : 0.0;
    pq[2][i] = item ? pqz[i] : 0.0;
    scale[i] = item ? pref[i] : 0.0;
    // Domain guard: the Gaussian-product reduced exponent is strictly
    // positive and the prefactor finite for any healthy primitive pair.
    // Poison the item's outputs on violation (counted; the SCF finite
    // sentinel reacts) rather than feeding the recursion garbage.
    if (item && (!(a > 0.0) || !std::isfinite(scale[i]) ||
                 !std::isfinite(pq[0][i] + pq[1][i] + pq[2][i]))) {
      record_domain_fault();
      poisoned[i] = any_poisoned = true;
      a = pq[0][i] = pq[1][i] = pq[2][i] = scale[i] = 0.0;
    }
    if (a > 0.0) {
      boys(l,
           a * (pq[0][i] * pq[0][i] + pq[1][i] * pq[1][i] +
                pq[2][i] * pq[2][i]),
           fm);
    } else {
      std::fill(fm, fm + l + 1, 0.0);  // padding and poisoned lanes
    }
    v[i] = fm[0];
    double pow_m = 1.0;
    for (int m = 1; m <= l; ++m) {
      pow_m *= -2.0 * a;
      rows[static_cast<std::size_t>(m - 1) * W + i] = pow_m * fm[m];
    }
  }
  for (std::size_t i = 0; i < cn; ++i) out[i * out_stride] = scale[i] * v[i];

  // Orders ascending, so every step reads rows already written:
  // R^{(m+1)}_{idx} sits at row(idx) + m.  m = 0 is the output itself.
  for (std::size_t h = 1; h < prog.size(); ++h) {
    const HermiteBasis::RecursionStep& step = prog[h];
    const double* x = pq[step.axis];
    const double* r1 = rows + static_cast<std::size_t>(prog[step.idx1].row) * W;
    const double* r2 =
        step.idx2 < 0 ? nullptr
                      : rows + static_cast<std::size_t>(prog[step.idx2].row) * W;
    double* dst = rows + static_cast<std::size_t>(step.row) * W;
    for (int m = 0; m <= l - step.order; ++m) {
      recur_lanes<W>(x, r1 + m * W, r2 == nullptr ? nullptr : r2 + m * W,
                     step.coeff, m == 0 ? v : dst + (m - 1) * W);
    }
    double* o = out + h;
    for (std::size_t i = 0; i < cn; ++i) o[i * out_stride] = scale[i] * v[i];
  }

  if (any_poisoned) {
    for (std::size_t i = 0; i < cn; ++i) {
      if (!poisoned[i]) continue;
      for (std::size_t h = 0; h < prog.size(); ++h) {
        out[i * out_stride + h] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
}

}  // namespace

void compute_r_integrals_batch(int l_total, std::size_t n, const double* alpha,
                               const double* pqx, const double* pqy,
                               const double* pqz, const double* pref,
                               double* out, std::size_t out_stride,
                               RIntegralWorkspace& ws) {
  const HermiteBasis& hb = HermiteBasis::get(l_total);
  // A single item (the scalar callers) runs on one lane, not a padded chunk.
  const std::size_t lanes = n > 1 ? kRIntegralChunk : 1;
  const std::size_t need =
      static_cast<std::size_t>(hb.recursion_rows()) * lanes;
  if (ws.rows.size() < need) ws.rows.resize(need);
  for (std::size_t i0 = 0; i0 < n; i0 += lanes) {
    const std::size_t cn = std::min(lanes, n - i0);
    if (lanes == 1) {
      r_integral_chunk<1>(hb, cn, alpha + i0, pqx + i0, pqy + i0, pqz + i0,
                          pref + i0, out + i0 * out_stride, out_stride,
                          ws.rows.data());
    } else {
      r_integral_chunk<kRIntegralChunk>(
          hb, cn, alpha + i0, pqx + i0, pqy + i0, pqz + i0, pref + i0,
          out + i0 * out_stride, out_stride, ws.rows.data());
    }
  }
}

void compute_r_integrals(int l_total, double alpha, const Vec3& pq,
                         double prefactor, double* out) {
  static thread_local RIntegralWorkspace ws;
  compute_r_integrals_batch(l_total, 1, &alpha, &pq[0], &pq[1], &pq[2],
                            &prefactor, out,
                            static_cast<std::size_t>(nherm(l_total)), ws);
}

}  // namespace mako
