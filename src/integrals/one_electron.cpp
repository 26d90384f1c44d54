#include "integrals/one_electron.hpp"

#include <cmath>

#include "basis/spherical.hpp"
#include "integrals/hermite.hpp"
#include "linalg/backend.hpp"

namespace mako {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Spherical transform of a Cartesian shell-pair block:
///   sph = C_a * cart * C_b^T.
MatrixD to_sph(int la, int lb, const MatrixD& cart) {
  const MatrixD& ca = cart_to_sph(la);
  const MatrixD& cb = cart_to_sph(lb);
  return matmul(matmul(ca, cart), cb.transposed());
}

template <typename BlockFn>
MatrixD build_one_electron(const BasisSet& basis, const BlockFn& block_fn) {
  const auto& shells = basis.shells();
  MatrixD out(basis.nbf(), basis.nbf(), 0.0);
  for (std::size_t sa = 0; sa < shells.size(); ++sa) {
    for (std::size_t sb = sa; sb < shells.size(); ++sb) {
      const Shell& a = shells[sa];
      const Shell& b = shells[sb];
      MatrixD cart(a.num_cart(), b.num_cart(), 0.0);
      block_fn(a, b, cart);
      const MatrixD sph = to_sph(a.l, b.l, cart);
      for (int i = 0; i < a.num_sph(); ++i) {
        for (int j = 0; j < b.num_sph(); ++j) {
          out(a.sph_offset + i, b.sph_offset + j) = sph(i, j);
          out(b.sph_offset + j, a.sph_offset + i) = sph(i, j);
        }
      }
    }
  }
  return out;
}

/// cart(ia, ib) += <a_ia | b_ib>.
void overlap_cart_block(const Shell& a, const Shell& b, MatrixD& cart) {
  for (int ip = 0; ip < a.nprim(); ++ip) {
    for (int jp = 0; jp < b.nprim(); ++jp) {
      const double alpha = a.exponents[ip];
      const double beta = b.exponents[jp];
      const double p = alpha + beta;
      const double coef = a.coefficients[ip] * b.coefficients[jp] *
                          std::pow(kPi / p, 1.5);
      Vec3 pc;
      for (int ax = 0; ax < 3; ++ax) {
        pc[ax] = (alpha * a.center[ax] + beta * b.center[ax]) / p;
      }
      const double mu = alpha * beta / p;
      std::vector<Hermite1D> e;
      for (int ax = 0; ax < 3; ++ax) {
        const double xab = a.center[ax] - b.center[ax];
        e.emplace_back(a.l, b.l, pc[ax] - a.center[ax], pc[ax] - b.center[ax],
                       p, std::exp(-mu * xab * xab));
      }
      for (int ia = 0; ia < a.num_cart(); ++ia) {
        int la[3];
        cart_components(a.l, ia, la[0], la[1], la[2]);
        for (int ib = 0; ib < b.num_cart(); ++ib) {
          int lb[3];
          cart_components(b.l, ib, lb[0], lb[1], lb[2]);
          cart(ia, ib) += coef * e[0](la[0], lb[0], 0) * e[1](la[1], lb[1], 0) *
                          e[2](la[2], lb[2], 0);
        }
      }
    }
  }
}

/// cart(ia, ib) += <a_ia | -1/2 nabla^2 | b_ib>.
void kinetic_cart_block(const Shell& a, const Shell& b, MatrixD& cart) {
  for (int ip = 0; ip < a.nprim(); ++ip) {
    for (int jp = 0; jp < b.nprim(); ++jp) {
      const double alpha = a.exponents[ip];
      const double beta = b.exponents[jp];
      const double p = alpha + beta;
      const double coef = a.coefficients[ip] * b.coefficients[jp] *
                          std::pow(kPi / p, 1.5);
      Vec3 pc;
      for (int ax = 0; ax < 3; ++ax) {
        pc[ax] = (alpha * a.center[ax] + beta * b.center[ax]) / p;
      }
      const double mu = alpha * beta / p;
      std::vector<Hermite1D> e;
      for (int ax = 0; ax < 3; ++ax) {
        const double xab = a.center[ax] - b.center[ax];
        // j raised to lb+2 for the second-derivative terms.
        e.emplace_back(a.l, b.l + 2, pc[ax] - a.center[ax],
                       pc[ax] - b.center[ax], p, std::exp(-mu * xab * xab));
      }
      auto s1d = [&](int ax, int i, int j) -> double {
        if (i < 0 || j < 0) return 0.0;
        return e[ax](i, j, 0);
      };
      auto t1d = [&](int ax, int i, int j) -> double {
        // 1D kinetic: -2 beta^2 S(i,j+2) + beta(2j+1) S(i,j)
        //             - j(j-1)/2 S(i,j-2).
        return -2.0 * beta * beta * s1d(ax, i, j + 2) +
               beta * (2.0 * j + 1.0) * s1d(ax, i, j) -
               0.5 * j * (j - 1.0) * s1d(ax, i, j - 2);
      };
      for (int ia = 0; ia < a.num_cart(); ++ia) {
        int la[3];
        cart_components(a.l, ia, la[0], la[1], la[2]);
        for (int ib = 0; ib < b.num_cart(); ++ib) {
          int lb[3];
          cart_components(b.l, ib, lb[0], lb[1], lb[2]);
          const double sx = s1d(0, la[0], lb[0]);
          const double sy = s1d(1, la[1], lb[1]);
          const double sz = s1d(2, la[2], lb[2]);
          const double tx = t1d(0, la[0], lb[0]);
          const double ty = t1d(1, la[1], lb[1]);
          const double tz = t1d(2, la[2], lb[2]);
          cart(ia, ib) += coef * (tx * sy * sz + sx * ty * sz + sx * sy * tz);
        }
      }
    }
  }
}

}  // namespace

MatrixD overlap_matrix(const BasisSet& basis) {
  return build_one_electron(basis, overlap_cart_block);
}

MatrixD kinetic_matrix(const BasisSet& basis) {
  return build_one_electron(basis, kinetic_cart_block);
}

MatrixD nuclear_attraction_matrix(const BasisSet& basis, const Molecule& mol) {
  auto block_fn = [&mol](const Shell& a, const Shell& b, MatrixD& cart) {
    const int lab = a.l + b.l;
    const HermiteBasis& hb = HermiteBasis::get(lab);
    std::vector<double> r(hb.size());
    MatrixD e_mat;

    for (int ip = 0; ip < a.nprim(); ++ip) {
      for (int jp = 0; jp < b.nprim(); ++jp) {
        const double alpha = a.exponents[ip];
        const double beta = b.exponents[jp];
        const double p = alpha + beta;
        const double coef = a.coefficients[ip] * b.coefficients[jp];
        Vec3 pc;
        for (int ax = 0; ax < 3; ++ax) {
          pc[ax] = (alpha * a.center[ax] + beta * b.center[ax]) / p;
        }
        build_e_matrix(a.l, b.l, a.center, b.center, alpha, beta, coef, e_mat);

        for (const Atom& atom : mol.atoms()) {
          Vec3 pq{pc[0] - atom.position[0], pc[1] - atom.position[1],
                  pc[2] - atom.position[2]};
          compute_r_integrals(lab, p, pq,
                              -static_cast<double>(atom.z) * 2.0 * kPi / p,
                              r.data());
          // cart(ia, ib) += sum_h E(h, iab) * R[h].
          for (int ia = 0; ia < a.num_cart(); ++ia) {
            for (int ib = 0; ib < b.num_cart(); ++ib) {
              const int col = ia * b.num_cart() + ib;
              double acc = 0.0;
              for (int h = 0; h < hb.size(); ++h) acc += e_mat(h, col) * r[h];
              cart(ia, ib) += acc;
            }
          }
        }
      }
    }
  };
  return build_one_electron(basis, block_fn);
}

MatrixD core_hamiltonian(const BasisSet& basis, const Molecule& mol) {
  MatrixD h = kinetic_matrix(basis);
  h += nuclear_attraction_matrix(basis, mol);
  return h;
}

}  // namespace mako
