#include "scf/xc.hpp"

#include <cmath>
#include <stdexcept>

#include "basis/spherical.hpp"
#include "linalg/backend.hpp"
#include "robust/cancel.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

// --- Energy densities (per volume), closed-shell forms ----------------------

// Slater exchange: f = Cx rho^{4/3}.
double f_slater(double rho) {
  static const double cx = -0.75 * std::pow(3.0 / kPi, 1.0 / 3.0);
  return cx * std::pow(rho, 4.0 / 3.0);
}

// VWN5 correlation (paramagnetic parameterization): f = rho * eps_c(rs).
double f_vwn(double rho) {
  constexpr double A = 0.0310907;
  constexpr double x0 = -0.10498;
  constexpr double b = 3.72744;
  constexpr double c = 12.9352;
  const double rs = std::pow(3.0 / (4.0 * kPi * rho), 1.0 / 3.0);
  const double x = std::sqrt(rs);
  const double X = x * x + b * x + c;
  const double X0 = x0 * x0 + b * x0 + c;
  const double Q = std::sqrt(4.0 * c - b * b);
  const double atn = std::atan(Q / (2.0 * x + b));
  const double eps =
      A * (std::log(x * x / X) + 2.0 * b / Q * atn -
           b * x0 / X0 *
               (std::log((x - x0) * (x - x0) / X) +
                2.0 * (b + 2.0 * x0) / Q * atn));
  return rho * eps;
}

// B88 gradient exchange correction (excluding the LDA part), closed shell.
double f_b88(double rho, double sigma) {
  constexpr double beta = 0.0042;
  const double rho_s = 0.5 * rho;           // per-spin density
  const double grad_s = 0.5 * std::sqrt(std::max(sigma, 0.0));
  const double rho43 = std::pow(rho_s, 4.0 / 3.0);
  if (rho43 <= 0.0) return 0.0;
  const double x = grad_s / rho43;
  const double denom = 1.0 + 6.0 * beta * x * std::asinh(x);
  // Two identical spin channels.
  return 2.0 * (-beta * rho43 * x * x / denom);
}

// LYP correlation (Miehlich et al. form), closed-shell specialization.
double f_lyp(double rho, double sigma) {
  constexpr double a = 0.04918;
  constexpr double b = 0.132;
  constexpr double c = 0.2533;
  constexpr double d = 0.349;
  const double cf = 0.3 * std::pow(3.0 * kPi * kPi, 2.0 / 3.0);

  const double ra = 0.5 * rho;  // rho_alpha == rho_beta
  const double rb = 0.5 * rho;
  const double saa = 0.25 * sigma;
  const double sbb = 0.25 * sigma;
  const double stot = sigma;

  const double rho13 = std::pow(rho, -1.0 / 3.0);
  const double denom = 1.0 + d * rho13;
  const double omega =
      std::exp(-c * rho13) / denom * std::pow(rho, -11.0 / 3.0);
  const double delta = c * rho13 + d * rho13 / denom;

  const double rab = ra * rb;
  const double term1 = -4.0 * a / denom * rab / rho;
  const double e83 = 8.0 / 3.0;
  const double inner =
      rab * (std::pow(2.0, 11.0 / 3.0) * cf *
                 (std::pow(ra, e83) + std::pow(rb, e83)) +
             (47.0 / 18.0 - 7.0 * delta / 18.0) * stot -
             (5.0 / 2.0 - delta / 18.0) * (saa + sbb) -
             (delta - 11.0) / 9.0 * (ra / rho * saa + rb / rho * sbb)) -
      2.0 / 3.0 * rho * rho * stot +
      (2.0 / 3.0 * rho * rho - ra * ra) * sbb +
      (2.0 / 3.0 * rho * rho - rb * rb) * saa;
  const double term2 = -a * b * omega * inner;
  return term1 + term2;
}

// Combined energy density for a kind.
double energy_density(XcKind kind, double rho, double sigma) {
  switch (kind) {
    case XcKind::kNone:
      return 0.0;
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
  return 0.0;
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
  sigma = std::max(sigma, 0.0);

  out.exc = energy_density(kind_, rho, sigma);

  // Potentials via a five-point Richardson stencil of the energy density:
  // truncation O(h^4) allows a generous step, keeping cancellation noise
  // negligible.  Validated against analytic forms / plain FD in tests.
  {
    const double h = 1e-3 * rho;
    const double f1 = energy_density(kind_, rho + h, sigma);
    const double f2 = energy_density(kind_, rho - h, sigma);
    const double f3 = energy_density(kind_, rho + 2 * h, sigma);
    const double f4 = energy_density(kind_, rho - 2 * h, sigma);
    out.vrho = (8.0 * (f1 - f2) - (f3 - f4)) / (12.0 * h);
  }

  if (needs_gradient()) {
    const double h = std::max(1e-3 * sigma, 1e-10);
    if (sigma >= 2 * h) {
      const double f1 = energy_density(kind_, rho, sigma + h);
      const double f2 = energy_density(kind_, rho, sigma - h);
      const double f3 = energy_density(kind_, rho, sigma + 2 * h);
      const double f4 = energy_density(kind_, rho, sigma - 2 * h);
      out.vsigma = (8.0 * (f1 - f2) - (f3 - f4)) / (12.0 * h);
    } else {
      // One-sided near sigma = 0.
      const double f0 = energy_density(kind_, rho, sigma);
      const double f1 = energy_density(kind_, rho, sigma + h);
      out.vsigma = (f1 - f0) / h;
    }
  }
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

  std::vector<double> cart_val, cart_gx, cart_gy, cart_gz;
  for (std::size_t p = 0; p < npts; ++p) {
    const Vec3& r = pts[p].position;
    for (const Shell& sh : basis.shells()) {
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

      const int l = sh.l;
      const int nc = sh.num_cart();
      cart_val.assign(nc, 0.0);
      if (grads) {
        cart_gx.assign(nc, 0.0);
        cart_gy.assign(nc, 0.0);
        cart_gz.assign(nc, 0.0);
      }

      double powx[8], powy[8], powz[8];
      powx[0] = powy[0] = powz[0] = 1.0;
      for (int i = 1; i <= l + 1; ++i) {
        powx[i] = powx[i - 1] * dx;
        powy[i] = powy[i - 1] * dy;
        powz[i] = powz[i - 1] * dz;
      }

      for (int ic = 0; ic < nc; ++ic) {
        int lx, ly, lz;
        cart_components(l, ic, lx, ly, lz);
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
      const MatrixD& cmat = cart_to_sph(l);
      for (int ms = 0; ms < sh.num_sph(); ++ms) {
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
        const std::size_t col = sh.sph_offset + ms;
        ao(p, col) = v;
        if (grads) {
          (*gx)(p, col) = vx;
          (*gy)(p, col) = vy;
          (*gz)(p, col) = vz;
        }
      }
    }
  }
}

XcResult integrate_xc(const BasisSet& basis, const MolecularGrid& grid,
                      const XcFunctional& xc, const MatrixD& d,
                      const GemmBackend* /*backend*/,
                      const CancelToken* cancel) {
  XcResult result;
  const std::size_t nbf = basis.nbf();
  result.vxc.resize(nbf, nbf, 0.0);
  if (xc.is_hf_only()) return result;
  const GemmBackend& be = GemmBackend::instance();

  const bool grads = xc.needs_gradient();
  constexpr std::size_t kChunk = 256;
  const auto& pts = grid.points();

  MatrixD ao, gx, gy, gz;
  MatrixD dphi;  // AO * D per chunk
  MatrixD bmat;

  for (std::size_t start = 0; start < pts.size(); start += kChunk) {
    if (cancel != nullptr && cancel->cancelled()) {
      result.cancelled = true;  // partial energy/vxc; caller discards
      return result;
    }
    const std::size_t n = std::min(kChunk, pts.size() - start);
    evaluate_aos(basis, pts.data() + start, n, ao, grads ? &gx : nullptr,
                 grads ? &gy : nullptr, grads ? &gz : nullptr);

    // dphi(p, n) = sum_m AO(p, m) D(m, n)  — a GEMM.
    dphi.resize(n, nbf);
    be.fp64(ao.data(), false, d.data(), false, dphi.data(), n, nbf, nbf);

    bmat.resize(n, nbf);
    bmat.fill(0.0);

    for (std::size_t p = 0; p < n; ++p) {
      double rho = 0.0;
      double grx = 0.0, gry = 0.0, grz = 0.0;
      const double* aop = ao.row(p);
      const double* dp = dphi.row(p);
      for (std::size_t m = 0; m < nbf; ++m) rho += aop[m] * dp[m];
      if (grads) {
        const double* gxp = gx.row(p);
        const double* gyp = gy.row(p);
        const double* gzp = gz.row(p);
        for (std::size_t m = 0; m < nbf; ++m) {
          grx += 2.0 * dp[m] * gxp[m];
          gry += 2.0 * dp[m] * gyp[m];
          grz += 2.0 * dp[m] * gzp[m];
        }
      }
      if (rho < 1e-12) continue;
      const double sigma = grx * grx + gry * gry + grz * grz;
      const double w = pts[start + p].weight;
      const XcPoint fx = xc.eval(rho, sigma);

      result.energy += w * fx.exc;
      result.n_electrons += w * rho;

      // B(p, n) = w (0.5 vrho phi_n + 2 vsigma grad rho . grad phi_n);
      // Vxc += AO^T B + B^T AO.
      double* bp = bmat.row(p);
      for (std::size_t m = 0; m < nbf; ++m) {
        double v = 0.5 * fx.vrho * aop[m];
        if (grads) {
          v += 2.0 * fx.vsigma *
               (grx * gx(p, m) + gry * gy(p, m) + grz * gz(p, m));
        }
        bp[m] = w * v;
      }
    }

    // Vxc += AO^T * B (then symmetrized below); the transpose is native to
    // the backend contract — no materialized AO^T copy.
    be.fp64(ao.data(), /*trans_a=*/true, bmat.data(), false,
            result.vxc.data(), nbf, nbf, n, 1.0, 1.0);
  }

  // Symmetrize: Vxc <- Vxc + Vxc^T.
  MatrixD vt = result.vxc.transposed();
  result.vxc += vt;
  return result;
}

}  // namespace mako
