#include "eri_reference.hpp"

#include <cmath>
#include <stdexcept>

#include "basis/spherical.hpp"
#include "integrals/hermite.hpp"
#include "linalg/backend.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

}  // namespace

void quartet_cart_to_sph(int la, int lb, int lc, int ld,
                         const std::vector<double>& cart,
                         std::vector<double>& sph) {
  const MatrixD& kab = cart_to_sph_pair(la, lb);
  const MatrixD& kcd = cart_to_sph_pair(lc, ld);
  const std::size_t ncab = kab.cols();
  const std::size_t nccd = kcd.cols();
  const std::size_t nsab = kab.rows();
  const std::size_t nscd = kcd.rows();

  const GemmBackend& be = GemmBackend::instance();
  // tmp = K_ab * cart : [nsab x nccd]
  std::vector<double> tmp(nsab * nccd, 0.0);
  be.fp64(kab.data(), false, cart.data(), false, tmp.data(), nsab, nccd, ncab);
  // sph = tmp * K_cd^T : [nsab x nscd]
  sph.assign(nsab * nscd, 0.0);
  be.fp64(tmp.data(), false, kcd.data(), true, sph.data(), nsab, nscd, nccd);
}

void ReferenceEriEngine::compute_cartesian(const Shell& a, const Shell& b,
                                           const Shell& c, const Shell& d,
                                           std::vector<double>& out) const {
  if (a.l > kMaxL || b.l > kMaxL || c.l > kMaxL || d.l > kMaxL) {
    throw std::domain_error(
        "ReferenceEriEngine: angular momentum exceeds engine support");
  }

  const int lab = a.l + b.l;
  const int lcd = c.l + d.l;
  const int ltot = lab + lcd;
  const HermiteBasis& hb_ab = HermiteBasis::get(lab);
  const HermiteBasis& hb_cd = HermiteBasis::get(lcd);
  const HermiteBasis& hb_tot = HermiteBasis::get(ltot);

  const int ncab = ncart(a.l) * ncart(b.l);
  const int nccd = ncart(c.l) * ncart(d.l);
  out.assign(static_cast<std::size_t>(ncab) * nccd, 0.0);

  // Precomputed (-1)^{t'+u'+v'} signs and combined R lookup offsets.
  std::vector<double> sign_cd(hb_cd.size());
  for (int h = 0; h < hb_cd.size(); ++h) {
    const auto& q = hb_cd.component(h);
    sign_cd[h] = ((q[0] + q[1] + q[2]) % 2 == 0) ? 1.0 : -1.0;
  }
  std::vector<int> combined(static_cast<std::size_t>(hb_ab.size()) *
                            hb_cd.size());
  for (int hp = 0; hp < hb_ab.size(); ++hp) {
    const auto& p = hb_ab.component(hp);
    for (int hq = 0; hq < hb_cd.size(); ++hq) {
      const auto& q = hb_cd.component(hq);
      combined[static_cast<std::size_t>(hp) * hb_cd.size() + hq] =
          hb_tot.index(p[0] + q[0], p[1] + q[1], p[2] + q[2]);
    }
  }

  const auto bra_pairs = make_prim_pairs(a.center, a.exponents, a.coefficients,
                                         b.center, b.exponents, b.coefficients);
  const auto ket_pairs = make_prim_pairs(c.center, c.exponents, c.coefficients,
                                         d.center, d.exponents, d.coefficients);

  std::vector<double> r(hb_tot.size());
  std::vector<double> herm_cd(static_cast<std::size_t>(hb_ab.size()) * nccd);
  MatrixD e_ab, e_cd;

  for (const PrimPair& bra : bra_pairs) {
    build_e_matrix(a.l, b.l, a.center, b.center, bra.alpha, bra.beta, bra.coef,
                   e_ab);
    for (const PrimPair& ket : ket_pairs) {
      build_e_matrix(c.l, d.l, c.center, d.center, ket.alpha, ket.beta,
                     ket.coef, e_cd);

      const double denom = bra.p * ket.p * std::sqrt(bra.p + ket.p);
      const double pref = 2.0 * std::pow(kPi, 2.5) / denom;
      const double alpha_rq = bra.p * ket.p / (bra.p + ket.p);
      Vec3 pq{bra.center[0] - ket.center[0], bra.center[1] - ket.center[1],
              bra.center[2] - ket.center[2]};
      compute_r_integrals(ltot, alpha_rq, pq, pref, r.data());

      // Stage 1 (scalar, irregular): [p~|cd] = sum_q~ E_cd (-1)^|q~| R.
      for (int hp = 0; hp < hb_ab.size(); ++hp) {
        const int* comb = combined.data() +
                          static_cast<std::size_t>(hp) * hb_cd.size();
        for (int col = 0; col < nccd; ++col) {
          double acc = 0.0;
          for (int hq = 0; hq < hb_cd.size(); ++hq) {
            acc += e_cd(hq, col) * sign_cd[hq] * r[comb[hq]];
          }
          herm_cd[static_cast<std::size_t>(hp) * nccd + col] = acc;
        }
      }
      // Stage 2 (scalar, irregular): (ab|cd) += E_ab^T [p~|cd].
      for (int iab = 0; iab < ncab; ++iab) {
        for (int col = 0; col < nccd; ++col) {
          double acc = 0.0;
          for (int hp = 0; hp < hb_ab.size(); ++hp) {
            acc += e_ab(hp, iab) *
                   herm_cd[static_cast<std::size_t>(hp) * nccd + col];
          }
          out[static_cast<std::size_t>(iab) * nccd + col] += acc;
        }
      }
    }
  }
}

void ReferenceEriEngine::compute(const Shell& a, const Shell& b, const Shell& c,
                                 const Shell& d,
                                 std::vector<double>& out) const {
  std::vector<double> cart;
  compute_cartesian(a, b, c, d, cart);
  quartet_cart_to_sph(a.l, b.l, c.l, d.l, cart, out);
}

double ReferenceEriEngine::quartet_flop_estimate(int la, int lb, int lc,
                                                 int ld, int kab, int kcd) {
  const int lab = la + lb;
  const int lcd = lc + ld;
  const double nh_ab = nherm(lab);
  const double nh_cd = nherm(lcd);
  const double nc_ab = ncart(la) * ncart(lb);
  const double nc_cd = ncart(lc) * ncart(ld);
  const double per_prim =
      2.0 * nh_ab * nh_cd +               // r-integral consumption
      2.0 * nh_ab * nc_cd * nh_cd +       // stage 1 transform
      2.0 * nc_ab * nc_cd * nh_ab;        // stage 2 transform
  return per_prim * kab * kcd;
}

}  // namespace mako
