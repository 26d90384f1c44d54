#include "scf/diis.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>

#include "linalg/backend.hpp"
#include "linalg/eigen.hpp"

namespace mako {

MatrixD diis_error_matrix(const MatrixD& f, const MatrixD& d, const MatrixD& s,
                          const MatrixD& x, const GemmBackend* backend) {
  MatrixD fds = matmul(matmul(f, d, backend), s, backend);
  MatrixD sdf = matmul(matmul(s, d, backend), f, backend);
  fds -= sdf;
  return matmul(matmul(x, Trans::kYes, fds, Trans::kNo, backend), x, backend);
}

double diis_error_norm(const MatrixD& error) {
  double m = 0.0;
  for (std::size_t i = 0; i < error.size(); ++i) {
    m = std::max(m, std::fabs(error.data()[i]));
  }
  return m;
}

MatrixD diis_extrapolate(std::vector<MatrixD>& focks,
                         std::vector<MatrixD>& errors, const MatrixD& fock,
                         const MatrixD& error, std::size_t max_vectors) {
  focks.push_back(fock);
  errors.push_back(error);
  auto drop_oldest = [&](std::size_t k) {
    focks.erase(focks.begin(), focks.begin() + static_cast<std::ptrdiff_t>(k));
    errors.erase(errors.begin(),
                 errors.begin() + static_cast<std::ptrdiff_t>(k));
  };
  if (focks.size() > max_vectors) drop_oldest(focks.size() - max_vectors);

  const std::size_t n = focks.size();
  if (n < 2) return fock;

  // B matrix of pairwise error overlaps, bordered by the -1 constraint row.
  MatrixD b(n + 1, n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t jj = i; jj < n; ++jj) {
      double dot = 0.0;
      const double* pi = errors[i].data();
      const double* pj = errors[jj].data();
      for (std::size_t e = 0; e < errors[i].size(); ++e) dot += pi[e] * pj[e];
      b(i, jj) = dot;
      b(jj, i) = dot;
    }
    b(i, n) = -1.0;
    b(n, i) = -1.0;
  }
  VectorD rhs(n + 1, 0.0);
  rhs[n] = -1.0;

  VectorD coef;
  try {
    coef = solve_lu(b, rhs);
  } catch (const std::exception&) {
    // Singular B (linearly dependent errors): drop the oldest pair and
    // return the raw Fock this cycle.
    drop_oldest(1);
    return fock;
  }

  MatrixD out(fock.rows(), fock.cols(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = coef[i];
    const double* src = focks[i].data();
    double* dst = out.data();
    for (std::size_t e = 0; e < out.size(); ++e) dst[e] += c * src[e];
  }
  return out;
}

}  // namespace mako
