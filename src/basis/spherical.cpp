#include "basis/spherical.hpp"

#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace mako {
namespace {

// Sparse polynomial in (x, y, z): monomial exponent triple -> coefficient.
using Poly = std::map<std::array<int, 3>, double>;

Poly scale(const Poly& p, double s) {
  Poly out;
  for (const auto& [mono, c] : p) out[mono] = c * s;
  return out;
}

Poly add(const Poly& a, const Poly& b) {
  Poly out = a;
  for (const auto& [mono, c] : b) out[mono] += c;
  return out;
}

// Multiply by a single variable (0=x, 1=y, 2=z).
Poly mul_var(const Poly& p, int axis) {
  Poly out;
  for (const auto& [mono, c] : p) {
    auto m = mono;
    ++m[axis];
    out[m] += c;
  }
  return out;
}

// Multiply by r^2 = x^2 + y^2 + z^2.
Poly mul_r2(const Poly& p) {
  Poly out;
  for (const auto& [mono, c] : p) {
    for (int axis = 0; axis < 3; ++axis) {
      auto m = mono;
      m[axis] += 2;
      out[m] += c;
    }
  }
  return out;
}

// Real solid harmonics R[l][m+l] built from the standard recursions:
//   C_{l+1,l+1} = x C_{l,l} - y S_{l,l}
//   S_{l+1,l+1} = y C_{l,l} + x S_{l,l}
//   R_{l+1,m}   = ((2l+1) z R_{l,m} - (l+m)(l-m) r^2 R_{l-1,m})
//                 / ((l+m+1)(l-m+1))
// Overall per-(l,m) scale is irrelevant: each row is re-normalized against
// the x^l Cartesian self-overlap below.
std::vector<std::vector<Poly>> build_solid_harmonics(int lmax) {
  std::vector<std::vector<Poly>> r(lmax + 1);
  for (int l = 0; l <= lmax; ++l) r[l].resize(2 * l + 1);

  r[0][0] = Poly{{{{0, 0, 0}}, 1.0}};
  if (lmax == 0) return r;

  r[1][0] = Poly{{{{0, 1, 0}}, 1.0}};  // m=-1: y
  r[1][1] = Poly{{{{0, 0, 1}}, 1.0}};  // m=0:  z
  r[1][2] = Poly{{{{1, 0, 0}}, 1.0}};  // m=+1: x

  for (int l = 1; l < lmax; ++l) {
    auto& cur = r[l];
    auto& nxt = r[l + 1];
    const Poly& c_ll = cur[2 * l];  // m=+l (cos sector)
    const Poly& s_ll = cur[0];      // m=-l (sin sector)

    // Sector-raising recursions.
    nxt[2 * (l + 1)] = add(mul_var(c_ll, 0), scale(mul_var(s_ll, 1), -1.0));
    nxt[0] = add(mul_var(c_ll, 1), mul_var(s_ll, 0));

    // Vertical recursion for |m| <= l.
    for (int m = -l; m <= l; ++m) {
      const Poly& rl = cur[m + l];
      Poly t1 = scale(mul_var(rl, 2), static_cast<double>(2 * l + 1));
      Poly t2;
      if (std::abs(m) <= l - 1) {
        const Poly& rlm1 = r[l - 1][m + (l - 1)];
        t2 = scale(mul_r2(rlm1), -static_cast<double>((l + m) * (l - m)));
      }
      const double denom = static_cast<double>((l + m + 1) * (l - m + 1));
      nxt[m + (l + 1)] = scale(add(t1, t2), 1.0 / denom);
    }
  }
  return r;
}

// Gaussian moment integral ratio helper: unnormalized overlap of two
// monomials under a shared Gaussian weight, with the a-dependent factors
// cancelled (both sides of the normalization ratio share them).
double mono_overlap(const std::array<int, 3>& a, const std::array<int, 3>& b) {
  double v = 1.0;
  for (int axis = 0; axis < 3; ++axis) {
    const int p = a[axis] + b[axis];
    if (p % 2 != 0) return 0.0;
    v *= double_factorial(p - 1);
  }
  return v;
}

MatrixD build_cart_to_sph(int l) {
  const auto harmonics = build_solid_harmonics(l);
  MatrixD c(nsph(l), ncart(l), 0.0);
  const double ref_norm = double_factorial(2 * l - 1);  // <x^l | x^l> factor

  for (int mi = 0; mi < nsph(l); ++mi) {
    const Poly& poly = harmonics[l][mi];
    // Self-overlap of the solid-harmonic polynomial under the Gaussian.
    double self = 0.0;
    for (const auto& [ma, ca] : poly) {
      for (const auto& [mb, cb] : poly) {
        self += ca * cb * mono_overlap(ma, mb);
      }
    }
    const double s = std::sqrt(ref_norm / self);
    for (const auto& [mono, coef] : poly) {
      const int idx = cart_index(l, mono[0], mono[1], mono[2]);
      c(mi, idx) = coef * s;
    }
  }
  return c;
}

// kron(C_a, C_b): the pair transform of a bra or ket index pair.
MatrixD kron(const MatrixD& ca, const MatrixD& cb) {
  MatrixD k(ca.rows() * cb.rows(), ca.cols() * cb.cols(), 0.0);
  for (std::size_t ia = 0; ia < ca.rows(); ++ia) {
    for (std::size_t ja = 0; ja < ca.cols(); ++ja) {
      if (ca(ia, ja) == 0.0) continue;
      for (std::size_t ib = 0; ib < cb.rows(); ++ib) {
        for (std::size_t jb = 0; jb < cb.cols(); ++jb) {
          k(ia * cb.rows() + ib, ja * cb.cols() + jb) =
              ca(ia, ja) * cb(ib, jb);
        }
      }
    }
  }
  return k;
}

/// Every transform, built once on first use and immutable afterwards, so
/// lookups from pool threads take no lock (the function-local static's guard
/// is the only synchronization).
struct SphTables {
  std::array<MatrixD, kMaxSphL + 1> single;
  std::array<MatrixD, (kMaxBasisL + 1) * (kMaxBasisL + 1)> pair;

  SphTables() {
    for (int l = 0; l <= kMaxSphL; ++l) single[l] = build_cart_to_sph(l);
    for (int la = 0; la <= kMaxBasisL; ++la) {
      for (int lb = 0; lb <= kMaxBasisL; ++lb) {
        pair[la * (kMaxBasisL + 1) + lb] = kron(single[la], single[lb]);
      }
    }
  }
};

const SphTables& tables() {
  static const SphTables t;
  return t;
}

void check_l(int l, int lmax, const char* fn) {
  if (l < 0 || l > lmax) {
    throw std::out_of_range(std::string(fn) + ": l = " + std::to_string(l) +
                            " outside [0, " + std::to_string(lmax) + "]");
  }
}

}  // namespace

double double_factorial(int n) noexcept {
  if (n <= 0) return 1.0;
  double v = 1.0;
  for (int k = n; k > 1; k -= 2) v *= k;
  return v;
}

int cart_index(int l, int lx, int ly, int lz) noexcept {
  (void)lz;
  // lx descending, then ly descending within fixed lx.
  const int before_lx = ((l - lx) * (l - lx + 1)) / 2;
  const int within = (l - lx) - ly;
  return before_lx + within;
}

void cart_components(int l, int index, int& lx, int& ly, int& lz) noexcept {
  for (lx = l; lx >= 0; --lx) {
    const int block = l - lx + 1;
    if (index < block) {
      ly = (l - lx) - index;
      lz = l - lx - ly;
      return;
    }
    index -= block;
  }
  lx = ly = lz = 0;  // unreachable for valid input
}

const MatrixD& cart_to_sph_pair(int la, int lb) {
  check_l(la, kMaxBasisL, "cart_to_sph_pair");
  check_l(lb, kMaxBasisL, "cart_to_sph_pair");
  return tables().pair[la * (kMaxBasisL + 1) + lb];
}

const MatrixD& cart_to_sph(int l) {
  check_l(l, kMaxSphL, "cart_to_sph");
  return tables().single[l];
}

}  // namespace mako
