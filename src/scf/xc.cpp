#include "scf/xc.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "basis/spherical.hpp"
#include "linalg/backend.hpp"
#include "parallel/communicator.hpp"
#include "parallel/thread_pool.hpp"
#include "robust/cancel.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

// --- Forward-mode dual numbers ----------------------------------------------
//
// A value with its partial derivatives along rho and sigma.  The energy
// densities below are written once over Dual, so the potentials v_rho and
// v_sigma come out exact alongside the energy.  Every value component is
// computed by the same double operation the plain expression would use.

struct Dual {
  double v = 0.0;   ///< value
  double dr = 0.0;  ///< d/drho
  double ds = 0.0;  ///< d/dsigma
};

Dual operator+(Dual a, Dual b) { return {a.v + b.v, a.dr + b.dr, a.ds + b.ds}; }
Dual operator-(Dual a, Dual b) { return {a.v - b.v, a.dr - b.dr, a.ds - b.ds}; }
Dual operator*(Dual a, Dual b) {
  return {a.v * b.v, a.dr * b.v + a.v * b.dr, a.ds * b.v + a.v * b.ds};
}
Dual operator/(Dual a, Dual b) {
  const double q = a.v / b.v;
  return {q, (a.dr - q * b.dr) / b.v, (a.ds - q * b.ds) / b.v};
}
Dual operator+(Dual a, double s) { return {a.v + s, a.dr, a.ds}; }
Dual operator+(double s, Dual a) { return {s + a.v, a.dr, a.ds}; }
Dual operator-(Dual a, double s) { return {a.v - s, a.dr, a.ds}; }
Dual operator-(double s, Dual a) { return {s - a.v, -a.dr, -a.ds}; }
Dual operator*(double s, Dual a) { return {s * a.v, s * a.dr, s * a.ds}; }
Dual operator/(Dual a, double s) { return {a.v / s, a.dr / s, a.ds / s}; }
Dual operator/(double s, Dual a) {
  const double q = s / a.v;
  return {q, -q / a.v * a.dr, -q / a.v * a.ds};
}

/// f(a) with f'(a) = df: the chain rule for every elementary function.
Dual chain(double f, double df, Dual a) { return {f, df * a.dr, df * a.ds}; }

// pow, sqrt and log are only taken of strictly positive arguments here
// (densities above the 1e-12 cutoff and positive combinations of them).
Dual pow(Dual a, double p) {
  const double f = std::pow(a.v, p);
  return chain(f, p * f / a.v, a);
}
Dual sqrt(Dual a) {
  const double f = std::sqrt(a.v);
  return chain(f, 0.5 / f, a);
}
Dual exp(Dual a) {
  const double f = std::exp(a.v);
  return chain(f, f, a);
}
Dual log(Dual a) { return chain(std::log(a.v), 1.0 / a.v, a); }
Dual atan(Dual a) {
  return chain(std::atan(a.v), 1.0 / (1.0 + a.v * a.v), a);
}

/// x asinh(x) as a function of x^2.  B88's x is proportional to
/// sqrt(sigma), which has no derivative at sigma = 0; the composite does:
/// d(x asinh x)/d(x^2) = (asinh(x)/x + 1/sqrt(1 + x^2)) / 2, which tends to
/// 1 as x -> 0.
Dual x_asinh_x(Dual x2) {
  const double x = std::sqrt(x2.v);
  const double as = std::asinh(x);
  const double d = x > 0.0 ? 0.5 * (as / x + 1.0 / std::sqrt(1.0 + x2.v)) : 1.0;
  return chain(x * as, d, x2);
}

// --- Energy densities (per volume), closed-shell forms ----------------------

// Slater exchange: f = Cx rho^{4/3}.
Dual f_slater(Dual rho) {
  static const double cx = -0.75 * std::pow(3.0 / kPi, 1.0 / 3.0);
  return cx * pow(rho, 4.0 / 3.0);
}

// VWN5 correlation (paramagnetic parameterization): f = rho * eps_c(rs).
Dual f_vwn(Dual rho) {
  constexpr double A = 0.0310907;
  constexpr double x0 = -0.10498;
  constexpr double b = 3.72744;
  constexpr double c = 12.9352;
  const Dual rs = pow(3.0 / (4.0 * kPi * rho), 1.0 / 3.0);
  const Dual x = sqrt(rs);
  const Dual X = x * x + b * x + c;
  const double X0 = x0 * x0 + b * x0 + c;
  const double Q = std::sqrt(4.0 * c - b * b);
  const Dual atn = atan(Q / (2.0 * x + b));
  const Dual eps =
      A * (log(x * x / X) + 2.0 * b / Q * atn -
           b * x0 / X0 *
               (log((x - x0) * (x - x0) / X) + 2.0 * (b + 2.0 * x0) / Q * atn));
  return rho * eps;
}

// B88 gradient exchange correction (excluding the LDA part), closed shell,
// written in x^2 = |grad rho_s|^2 / rho_s^{8/3} so sigma enters linearly.
Dual f_b88(Dual rho, Dual sigma) {
  constexpr double beta = 0.0042;
  const Dual rho_s = 0.5 * rho;  // per-spin density
  const Dual rho43 = pow(rho_s, 4.0 / 3.0);
  const Dual x2 = 0.25 * sigma / (rho43 * rho43);
  const Dual denom = 1.0 + 6.0 * beta * x_asinh_x(x2);
  // Two identical spin channels.
  return 2.0 * (-beta * rho43 * x2 / denom);
}

// LYP correlation (Miehlich et al. form), closed-shell specialization.
Dual f_lyp(Dual rho, Dual sigma) {
  constexpr double a = 0.04918;
  constexpr double b = 0.132;
  constexpr double c = 0.2533;
  constexpr double d = 0.349;
  static const double cf = 0.3 * std::pow(3.0 * kPi * kPi, 2.0 / 3.0);

  const Dual ra = 0.5 * rho;  // rho_alpha == rho_beta
  const Dual rb = 0.5 * rho;
  const Dual saa = 0.25 * sigma;
  const Dual sbb = 0.25 * sigma;
  const Dual stot = sigma;

  const Dual rho13 = pow(rho, -1.0 / 3.0);
  const Dual denom = 1.0 + d * rho13;
  const Dual omega = exp(-c * rho13) / denom * pow(rho, -11.0 / 3.0);
  const Dual delta = c * rho13 + d * rho13 / denom;

  const Dual rab = ra * rb;
  const Dual term1 = -4.0 * a / denom * rab / rho;
  const double e83 = 8.0 / 3.0;
  const Dual inner =
      rab * (std::pow(2.0, 11.0 / 3.0) * cf * (pow(ra, e83) + pow(rb, e83)) +
             (47.0 / 18.0 - 7.0 * delta / 18.0) * stot -
             (5.0 / 2.0 - delta / 18.0) * (saa + sbb) -
             (delta - 11.0) / 9.0 * (ra / rho * saa + rb / rho * sbb)) -
      2.0 / 3.0 * rho * rho * stot + (2.0 / 3.0 * rho * rho - ra * ra) * sbb +
      (2.0 / 3.0 * rho * rho - rb * rb) * saa;
  const Dual term2 = -a * b * omega * inner;
  return term1 + term2;
}

// Combined energy density for a kind.
Dual energy_density(XcKind kind, Dual rho, Dual sigma) {
  switch (kind) {
    case XcKind::kNone:
      return {};
    case XcKind::kLDA:
      return f_slater(rho) + f_vwn(rho);
    case XcKind::kBLYP:
      return f_slater(rho) + f_b88(rho, sigma) + f_lyp(rho, sigma);
    case XcKind::kB3LYP:
      // Exc = Ex_LSDA + a0 (Ex_HF - Ex_LSDA) + ax dEx_B88
      //       + Ec_VWN + ac (Ec_LYP - Ec_VWN),  a0=0.20 ax=0.72 ac=0.81:
      // 0.80 Slater + 0.72 B88-correction (0.20 exact exchange is handled by
      // the Fock builder) and 0.19 VWN + 0.81 LYP correlation.
      return 0.80 * f_slater(rho) + 0.72 * f_b88(rho, sigma) +
             0.19 * f_vwn(rho) + 0.81 * f_lyp(rho, sigma);
  }
  return {};
}

// --- AO evaluation ----------------------------------------------------------

/// AO values (and gradients when gx is non-null) of `shells` at `pts`, into
/// row-major [npts x ld] blocks whose columns hold the shells' spherical
/// components back to back, in the order given.
void evaluate_shells(const Shell* const* shells, std::size_t nshells,
                     const GridPoint* pts, std::size_t npts, std::size_t ld,
                     double* ao, double* gx, double* gy, double* gz) {
  const bool grads = gx != nullptr;
  constexpr int kMaxCart = ncart(kMaxSphL);
  std::size_t col0 = 0;
  for (std::size_t si = 0; si < nshells; ++si) {
    const Shell& sh = *shells[si];
    const int l = sh.l;
    const int nc = sh.num_cart();
    const int ns = sh.num_sph();
    const MatrixD& cmat = cart_to_sph(l);
    int lxs[kMaxCart], lys[kMaxCart], lzs[kMaxCart];
    for (int ic = 0; ic < nc; ++ic) {
      cart_components(l, ic, lxs[ic], lys[ic], lzs[ic]);
    }

    for (std::size_t p = 0; p < npts; ++p) {
      const Vec3& r = pts[p].position;
      const double dx = r[0] - sh.center[0];
      const double dy = r[1] - sh.center[1];
      const double dz = r[2] - sh.center[2];
      const double r2 = dx * dx + dy * dy + dz * dz;

      // Radial sums: R0 = sum c_i exp(-a_i r^2), R1 = sum c_i a_i exp(...).
      double r0 = 0.0, r1 = 0.0;
      for (int i = 0; i < sh.nprim(); ++i) {
        const double e = sh.coefficients[i] * std::exp(-sh.exponents[i] * r2);
        r0 += e;
        r1 += sh.exponents[i] * e;
      }

      double powx[kMaxSphL + 2], powy[kMaxSphL + 2], powz[kMaxSphL + 2];
      powx[0] = powy[0] = powz[0] = 1.0;
      for (int i = 1; i <= l + 1; ++i) {
        powx[i] = powx[i - 1] * dx;
        powy[i] = powy[i - 1] * dy;
        powz[i] = powz[i - 1] * dz;
      }

      double cart_val[kMaxCart], cart_gx[kMaxCart], cart_gy[kMaxCart],
          cart_gz[kMaxCart];
      for (int ic = 0; ic < nc; ++ic) {
        const int lx = lxs[ic], ly = lys[ic], lz = lzs[ic];
        const double mono = powx[lx] * powy[ly] * powz[lz];
        cart_val[ic] = mono * r0;
        if (grads) {
          const double common = -2.0 * r1;
          cart_gx[ic] = (lx > 0 ? lx * powx[lx - 1] * powy[ly] * powz[lz] * r0
                                : 0.0) +
                        powx[lx + 1] * powy[ly] * powz[lz] * common;
          cart_gy[ic] = (ly > 0 ? ly * powx[lx] * powy[ly - 1] * powz[lz] * r0
                                : 0.0) +
                        powx[lx] * powy[ly + 1] * powz[lz] * common;
          cart_gz[ic] = (lz > 0 ? lz * powx[lx] * powy[ly] * powz[lz - 1] * r0
                                : 0.0) +
                        powx[lx] * powy[ly] * powz[lz + 1] * common;
        }
      }

      // Cartesian -> spherical.
      const std::size_t row = p * ld + col0;
      for (int ms = 0; ms < ns; ++ms) {
        double v = 0.0, vx = 0.0, vy = 0.0, vz = 0.0;
        for (int ic = 0; ic < nc; ++ic) {
          const double cc = cmat(ms, ic);
          if (cc == 0.0) continue;
          v += cc * cart_val[ic];
          if (grads) {
            vx += cc * cart_gx[ic];
            vy += cc * cart_gy[ic];
            vz += cc * cart_gz[ic];
          }
        }
        ao[row + ms] = v;
        if (grads) {
          gx[row + ms] = vx;
          gy[row + ms] = vy;
          gz[row + ms] = vz;
        }
      }
    }
    col0 += static_cast<std::size_t>(ns);
  }
}

// --- The quadrature ---------------------------------------------------------

constexpr std::size_t kChunk = MolecularGrid::kBlock;
constexpr std::size_t kSlices = static_cast<std::size_t>(kMaxCommRanks);

/// One owner slice's share of the quadrature.
struct XcSlice {
  MatrixD vxc;  ///< sum over the slice's chunks of AO^T B (unsymmetrized)
  double energy = 0.0;
  double n_electrons = 0.0;
  bool cancelled = false;
};

/// Per-thread chunk buffers, reused across chunks and calls.  Their contents
/// never outlive a chunk, so which thread runs a slice changes no bit.
struct XcScratch {
  std::vector<const Shell*> kept;  ///< shells that survive screening
  std::vector<std::size_t> cols;   ///< kept column -> AO index
  std::vector<double> ao, gx, gy, gz;
  std::vector<double> d_kept;  ///< D restricted to the kept AOs
  /// AO * D, overwritten row by row with
  /// B = w (v_rho/2 phi + 2 v_sigma grad rho . grad phi).
  std::vector<double> dphi_b;
  std::vector<double> v_kept;  ///< AO^T * B on the kept AOs
};

void ensure(std::vector<double>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Integrates one chunk of `n` points into `slice`.
void integrate_chunk(const BasisSet& basis, const std::vector<double>& radius,
                     const XcFunctional& xc, const MatrixD& d,
                     const GridPoint* pts, std::size_t n, XcSlice& slice,
                     XcScratch& s) {
  const bool grads = xc.needs_gradient();
  const auto& shells = basis.shells();

  // Bounding box of the chunk; keep shells that can reach it.
  Vec3 lo = pts[0].position, hi = pts[0].position;
  for (std::size_t p = 1; p < n; ++p) {
    for (int k = 0; k < 3; ++k) {
      lo[k] = std::min(lo[k], pts[p].position[k]);
      hi[k] = std::max(hi[k], pts[p].position[k]);
    }
  }
  s.kept.clear();
  s.cols.clear();
  for (std::size_t i = 0; i < shells.size(); ++i) {
    const Shell& sh = shells[i];
    double dist2 = 0.0;
    for (int k = 0; k < 3; ++k) {
      const double out = std::max({lo[k] - sh.center[k], 0.0,
                                   sh.center[k] - hi[k]});
      dist2 += out * out;
    }
    if (dist2 > radius[i] * radius[i]) continue;
    s.kept.push_back(&sh);
    for (int m = 0; m < sh.num_sph(); ++m) s.cols.push_back(sh.sph_offset + m);
  }
  const std::size_t nk = s.cols.size();
  if (nk == 0) return;

  ensure(s.ao, n * nk);
  if (grads) {
    ensure(s.gx, n * nk);
    ensure(s.gy, n * nk);
    ensure(s.gz, n * nk);
  }
  evaluate_shells(s.kept.data(), s.kept.size(), pts, n, nk, s.ao.data(),
                  grads ? s.gx.data() : nullptr, grads ? s.gy.data() : nullptr,
                  grads ? s.gz.data() : nullptr);

  // dphi(p, j) = sum_i AO(p, i) D(i, j) over the kept AOs — a GEMM.
  ensure(s.d_kept, nk * nk);
  for (std::size_t i = 0; i < nk; ++i) {
    const double* drow = d.row(s.cols[i]);
    for (std::size_t j = 0; j < nk; ++j) s.d_kept[i * nk + j] = drow[s.cols[j]];
  }
  ensure(s.dphi_b, n * nk);
  const GemmBackend& be = GemmBackend::instance();
  be.fp64(s.ao.data(), false, s.d_kept.data(), false, s.dphi_b.data(), n, nk,
          nk);

  for (std::size_t p = 0; p < n; ++p) {
    const double* aop = s.ao.data() + p * nk;
    double* dp = s.dphi_b.data() + p * nk;  // read, then overwritten by B
    double rho = 0.0;
    double grx = 0.0, gry = 0.0, grz = 0.0;
    for (std::size_t m = 0; m < nk; ++m) rho += aop[m] * dp[m];
    const double* gxp = grads ? s.gx.data() + p * nk : nullptr;
    const double* gyp = grads ? s.gy.data() + p * nk : nullptr;
    const double* gzp = grads ? s.gz.data() + p * nk : nullptr;
    if (grads) {
      for (std::size_t m = 0; m < nk; ++m) {
        grx += 2.0 * dp[m] * gxp[m];
        gry += 2.0 * dp[m] * gyp[m];
        grz += 2.0 * dp[m] * gzp[m];
      }
    }
    if (rho < 1e-12) {
      std::fill(dp, dp + nk, 0.0);
      continue;
    }
    const double sigma = grx * grx + gry * gry + grz * grz;
    const double w = pts[p].weight;
    const XcPoint fx = xc.eval(rho, sigma);

    slice.energy += w * fx.exc;
    slice.n_electrons += w * rho;

    // B(p, m) = w (0.5 vrho phi_m + 2 vsigma grad rho . grad phi_m);
    // Vxc += AO^T B + B^T AO.
    for (std::size_t m = 0; m < nk; ++m) {
      double v = 0.5 * fx.vrho * aop[m];
      if (grads) {
        v += 2.0 * fx.vsigma * (grx * gxp[m] + gry * gyp[m] + grz * gzp[m]);
      }
      dp[m] = w * v;
    }
  }

  // AO^T * B on the kept block (the transpose is native to the backend
  // contract), then scattered into the slice's Vxc.
  ensure(s.v_kept, nk * nk);
  be.fp64(s.ao.data(), /*trans_a=*/true, s.dphi_b.data(), false,
          s.v_kept.data(), nk, nk, n);
  for (std::size_t i = 0; i < nk; ++i) {
    double* vrow = slice.vxc.row(s.cols[i]);
    const double* src = s.v_kept.data() + i * nk;
    for (std::size_t j = 0; j < nk; ++j) vrow[s.cols[j]] += src[j];
  }
}

}  // namespace

XcFunctional XcFunctional::from_name(const std::string& name) {
  if (name == "hf" || name == "HF" || name.empty()) {
    return XcFunctional(XcKind::kNone);
  }
  if (name == "lda" || name == "LDA" || name == "svwn") {
    return XcFunctional(XcKind::kLDA);
  }
  if (name == "blyp" || name == "BLYP") return XcFunctional(XcKind::kBLYP);
  if (name == "b3lyp" || name == "B3LYP") return XcFunctional(XcKind::kB3LYP);
  throw std::invalid_argument("unknown functional: " + name);
}

const char* XcFunctional::name() const noexcept {
  switch (kind_) {
    case XcKind::kNone:
      return "HF";
    case XcKind::kLDA:
      return "LDA(SVWN5)";
    case XcKind::kBLYP:
      return "BLYP";
    case XcKind::kB3LYP:
      return "B3LYP";
  }
  return "?";
}

double XcFunctional::exact_exchange() const noexcept {
  switch (kind_) {
    case XcKind::kNone:
      return 1.0;
    case XcKind::kLDA:
    case XcKind::kBLYP:
      return 0.0;
    case XcKind::kB3LYP:
      return 0.20;
  }
  return 1.0;
}

bool XcFunctional::needs_gradient() const noexcept {
  return kind_ == XcKind::kBLYP || kind_ == XcKind::kB3LYP;
}

XcPoint XcFunctional::eval(double rho, double sigma) const {
  XcPoint out;
  if (kind_ == XcKind::kNone || rho < 1e-12) return out;
  const Dual f = energy_density(kind_, Dual{rho, 1.0, 0.0},
                                Dual{std::max(sigma, 0.0), 0.0, 1.0});
  out.exc = f.v;
  out.vrho = f.dr;
  out.vsigma = f.ds;
  return out;
}

void evaluate_aos(const BasisSet& basis, const GridPoint* pts,
                  std::size_t npts, MatrixD& ao, MatrixD* gx, MatrixD* gy,
                  MatrixD* gz) {
  const std::size_t nbf = basis.nbf();
  ao.resize(npts, nbf);
  const bool grads = gx != nullptr;
  if (grads) {
    gx->resize(npts, nbf);
    gy->resize(npts, nbf);
    gz->resize(npts, nbf);
  }
  std::vector<const Shell*> shells;
  for (const Shell& sh : basis.shells()) shells.push_back(&sh);
  evaluate_shells(shells.data(), shells.size(), pts, npts, nbf, ao.data(),
                  grads ? gx->data() : nullptr, grads ? gy->data() : nullptr,
                  grads ? gz->data() : nullptr);
}

// With A the largest absolute row sum of cart_to_sph(l), every AO of the
// shell and every gradient component is bounded by sum_i g_i(r),
//   g_i(r) = A |c_i| (r^l + l r^{l-1} + 2 a_i r^{l+1}) exp(-a_i r^2),
// and each g_i falls monotonically beyond sqrt((l+1) / (2 a_i)).  The radius
// is the largest over primitives of where g_i drops below the cutoff over
// nprim.
double xc_screening_radius(const Shell& sh) {
  const int l = sh.l;
  const MatrixD& cmat = cart_to_sph(l);
  double row_sum = 0.0;
  for (std::size_t m = 0; m < cmat.rows(); ++m) {
    double s = 0.0;
    for (std::size_t c = 0; c < cmat.cols(); ++c) s += std::fabs(cmat(m, c));
    row_sum = std::max(row_sum, s);
  }
  const double target = kXcAoCutoff / sh.nprim();
  double radius = 0.0;
  for (int i = 0; i < sh.nprim(); ++i) {
    const double a = sh.exponents[i];
    const double scale = row_sum * std::fabs(sh.coefficients[i]);
    const auto g = [&](double r) {
      const double rl = std::pow(r, l);
      const double rlm1 = l > 0 ? std::pow(r, l - 1) : 0.0;
      return scale * (rl + l * rlm1 + 2.0 * a * rl * r) * std::exp(-a * r * r);
    };
    double lo = std::sqrt((l + 1) / (2.0 * a));
    if (g(lo) >= target) {
      double hi = 2.0 * lo;
      while (g(hi) >= target) hi *= 2.0;
      while (hi - lo > 1e-6 * hi) {
        const double mid = 0.5 * (lo + hi);
        (g(mid) >= target ? lo : hi) = mid;
      }
      lo = hi;
    }
    radius = std::max(radius, lo);
  }
  return radius;
}

XcResult integrate_xc(const BasisSet& basis, const MolecularGrid& grid,
                      const XcFunctional& xc, const MatrixD& d,
                      ThreadPool& pool, const CancelToken* cancel) {
  XcResult result;
  const std::size_t nbf = basis.nbf();
  result.vxc.resize(nbf, nbf, 0.0);
  if (xc.is_hf_only()) return result;

  std::vector<double> radius;
  radius.reserve(basis.shells().size());
  for (const Shell& sh : basis.shells()) {
    radius.push_back(xc_screening_radius(sh));
  }

  // Chunks map to the fixed owner slices (slice s owns chunks
  // [s*nchunks/16, (s+1)*nchunks/16)), each slice runs its chunks in order,
  // and the slices fold in the pinned 16-leaf tree: the bits do not depend
  // on the pool size.
  const auto& pts = grid.points();
  const std::size_t nchunks = (pts.size() + kChunk - 1) / kChunk;
  std::array<XcSlice, kSlices> slices;
  pool.parallel_for(kSlices, [&](std::size_t si) {
    XcSlice& slice = slices[si];
    slice.vxc.resize(nbf, nbf, 0.0);
    // One set of chunk buffers per thread, not per slice: their contents
    // never reach the results, and 16 slice copies would all grow to full
    // size.
    static thread_local XcScratch scratch;
    for (std::size_t c = si * nchunks / kSlices;
         c < (si + 1) * nchunks / kSlices; ++c) {
      if (cancel != nullptr && cancel->cancelled()) {
        slice.cancelled = true;  // partial energy/vxc; caller discards
        return;
      }
      const std::size_t start = c * kChunk;
      integrate_chunk(basis, radius, xc, d, pts.data() + start,
                      std::min(kChunk, pts.size() - start), slice, scratch);
    }
  });

  std::array<MatrixD*, kSlices> vparts;
  std::array<double, kSlices> energy, n_electrons;
  for (std::size_t si = 0; si < kSlices; ++si) {
    vparts[si] = &slices[si].vxc;
    energy[si] = slices[si].energy;
    n_electrons[si] = slices[si].n_electrons;
    result.cancelled = result.cancelled || slices[si].cancelled;
  }
  pinned_tree_sum(vparts.data(), kSlices);
  pinned_tree_sum(energy.data(), kSlices);
  pinned_tree_sum(n_electrons.data(), kSlices);
  result.energy = energy[0];
  result.n_electrons = n_electrons[0];

  // Symmetrize: Vxc <- Vxc + Vxc^T.
  result.vxc = std::move(slices[0].vxc);
  MatrixD vt = result.vxc.transposed();
  result.vxc += vt;
  return result;
}

XcResult integrate_xc(const BasisSet& basis, const MolecularGrid& grid,
                      const XcFunctional& xc, const MatrixD& d,
                      const GemmBackend* /*backend*/) {
  ThreadPool inline_pool(1);
  return integrate_xc(basis, grid, xc, d, inline_pool);
}

}  // namespace mako
