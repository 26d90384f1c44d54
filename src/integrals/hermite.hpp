// McMurchie-Davidson machinery: Hermite Gaussian expansion coefficients (E)
// and Hermite Coulomb integrals (the r-integrals of Eq. 4-5 in the paper).
//
// Everything downstream — one-electron integrals, KernelMako's matrix-aligned
// pipeline, and the bench-side reference ERI engine — is built from these two
// pieces.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace mako {

/// Number of Hermite components (t,u,v) with t+u+v <= L.
constexpr int nherm(int l) noexcept {
  return (l + 1) * (l + 2) * (l + 3) / 6;
}

/// Enumeration of Hermite components for a given total order L with O(1)
/// index lookup, plus the r-integral recursion program of that order.
/// Component order: ascending total order n, then t descending, then u
/// descending.
class HermiteBasis {
 public:
  /// Highest order get() serves (the Boys table's kBoysMaxM).
  static constexpr int kMaxOrder = 28;

  /// How component h is produced by the Hermite Coulomb recursion (Eq. 5),
  /// reducing along the first axis on which h is nonzero:
  ///
  ///   R^{(m)}_h = PQ[axis] R^{(m+1)}_{idx1} + coeff R^{(m+1)}_{idx2}
  ///
  /// with idx1 = h - 1_axis and idx2 = h - 2_axis (idx2 < 0: no second
  /// term), for m = 0 .. L - order.  Entry 0 is the Boys seed R^{(m)}_{000}.
  struct RecursionStep {
    int axis = 0;
    int idx1 = -1;
    int idx2 = -1;
    double coeff = 0.0;  ///< (h - 1_axis)[axis]
    int order = 0;       ///< |h| = t + u + v
    /// First row of h in the packed recursion storage, which keeps only the
    /// L - order entries m = 1 .. L - order (row + m - 1).  m = 0 is the
    /// output itself and never stored.
    int row = 0;
  };

  explicit HermiteBasis(int l);

  [[nodiscard]] int order() const noexcept { return l_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(comps_.size());
  }
  [[nodiscard]] const std::array<int, 3>& component(int i) const {
    return comps_[i];
  }
  [[nodiscard]] int index(int t, int u, int v) const {
    return lut_[(t * (l_ + 1) + u) * (l_ + 1) + v];
  }

  /// The recursion program of order L, one step per component.
  [[nodiscard]] const std::vector<RecursionStep>& recursion() const noexcept {
    return steps_;
  }
  /// Rows of the packed recursion storage: sum over h of L - |h|.
  [[nodiscard]] int recursion_rows() const noexcept { return rows_; }

  /// Shared instance of order l (0 <= l <= kMaxOrder), built on first use;
  /// later lookups take no lock.
  static const HermiteBasis& get(int l);

 private:
  int l_;
  std::vector<std::array<int, 3>> comps_;
  std::vector<int> lut_;
  std::vector<RecursionStep> steps_;
  int rows_ = 0;
};

/// One-dimensional Hermite expansion coefficients E_t^{ij} for a primitive
/// pair along one axis, including the Gaussian-product exponential prefactor
/// in E_0^{00}.  Valid ranges: 0 <= i <= imax, 0 <= j <= jmax, 0 <= t <= i+j.
class Hermite1D {
 public:
  Hermite1D() = default;

  /// xpa = P - A (this axis), xpb = P - B, p = alpha + beta,
  /// e00 = exp(-alpha*beta/p * X_AB^2) for this axis.
  Hermite1D(int imax, int jmax, double xpa, double xpb, double p, double e00) {
    reset(imax, jmax, xpa, xpb, p, e00);
  }

  /// Rebuilds the table in place, reusing the existing storage — the batched
  /// engine cycles one instance per axis through every primitive pair.
  void reset(int imax, int jmax, double xpa, double xpb, double p, double e00);

  [[nodiscard]] double operator()(int i, int j, int t) const noexcept {
    if (t < 0 || t > i + j) return 0.0;
    return data_[(i * (jmax_ + 1) + j) * (imax_ + jmax_ + 1) + t];
  }

 private:
  int imax_ = 0;
  int jmax_ = 0;
  std::vector<double> data_;
};

/// Scaled per-primitive-pair data entering ERI pipelines.
struct PrimPair {
  double p = 0.0;      ///< alpha + beta
  Vec3 center{};       ///< Gaussian product center P
  double coef = 1.0;   ///< c_a * c_b (normalized contraction coefficients)
  double kab = 1.0;    ///< exp(-alpha*beta/p |AB|^2) (screening factor)
  double alpha = 0.0;  ///< bra exponent
  double beta = 0.0;   ///< ket exponent
};

/// All primitive pairs of two contracted shells (Gaussian product theorem).
std::vector<PrimPair> make_prim_pairs(const Vec3& a_center,
                                      const std::vector<double>& a_exps,
                                      const std::vector<double>& a_coefs,
                                      const Vec3& b_center,
                                      const std::vector<double>& b_exps,
                                      const std::vector<double>& b_coefs);

/// Allocation-free variant: writes the nprim(a)*nprim(b) pairs to `out`,
/// which must have room for them.  Used by the batched engine's scratch arena.
void make_prim_pairs(const Vec3& a_center, const std::vector<double>& a_exps,
                     const std::vector<double>& a_coefs, const Vec3& b_center,
                     const std::vector<double>& b_exps,
                     const std::vector<double>& b_coefs, PrimPair* out);

/// Structurally nonzero entries of one primitive pair's E matrix (see
/// build_e_matrix), grouped by column: column `col` owns the entries
/// [col_start[col], col_start[col + 1]), each a Hermite row h and value v.
struct ESparse {
  std::vector<int> col_start;
  std::vector<int> h;
  std::vector<double> v;
};

/// Fills `out` with the entries of build_e_matrix(la, lb, a, b, alpha, beta,
/// coef) that can be nonzero (each Hermite component within the column's
/// summed Cartesian power on its axis), bit-identical to the dense matrix's.
/// Reuses `out`'s storage, so warm calls do not allocate.
void build_e_sparse(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, ESparse& out);

/// Builds the Hermite->Cartesian transformation matrix E for one primitive
/// pair of shells (la, lb): shape [nherm(la+lb) x ncart(la)*ncart(lb)],
/// element (p~, iab) = coef * Ex_t^{ax bx} Ey_u^{ay by} Ez_v^{az bz}.
/// This is the E_AB / E_CD operand of the paper's Eq. 7 GEMMs.
void build_e_matrix(int la, int lb, const Vec3& a, const Vec3& b, double alpha,
                    double beta, double coef, MatrixD& out);

/// Items per chunk of compute_r_integrals_batch: the lane count of its
/// item-innermost loops.
inline constexpr std::size_t kRIntegralChunk = 16;

/// Working storage of compute_r_integrals_batch: the packed recursion rows
/// of one chunk, [recursion_rows x lanes].  Grows to the highest order seen
/// and is never shrunk, so warm calls do not allocate.
struct RIntegralWorkspace {
  std::vector<double> rows;
};

/// Hermite Coulomb r-integrals of n items in structure-of-arrays form:
/// item i has reduced exponent alpha[i], separation PQ = (pqx, pqy, pqz)[i]
/// and prefactor pref[i], and gets
///
///   out[i * out_stride + h] = pref[i] * R^{(0)}_h,   h < nherm(L),
///
/// the recursion of Eq. 5 seeded with Boys values
/// R^{(m)}_{000} = (-2 alpha)^m F_m(alpha |PQ|^2), components indexed by
/// HermiteBasis::get(L).  Item-major: item i's r-integrals are one row,
/// out_stride >= nherm(L) apart, and slots past nherm(L) in a row are not
/// written.  Items run in chunks of kRIntegralChunk with the item index
/// innermost; every item's arithmetic is the same as a call of its own, so
/// the result does not depend on n or on an item's neighbours.  An item with
/// alpha <= 0 or a non-finite PQ or prefactor gets NaN outputs and counts
/// one domain fault (record_domain_fault); its neighbours are unaffected.
void compute_r_integrals_batch(int l_total, std::size_t n, const double* alpha,
                               const double* pqx, const double* pqy,
                               const double* pqz, const double* pref,
                               double* out, std::size_t out_stride,
                               RIntegralWorkspace& ws);

/// Single-item compute_r_integrals_batch (n = 1, thread-local workspace):
/// `out` must have nherm(L) slots, indexed by HermiteBasis::get(L).
void compute_r_integrals(int l_total, double alpha, const Vec3& pq,
                         double prefactor, double* out);

}  // namespace mako
