#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mako {
namespace {

double hypot2(double a, double b) { return std::sqrt(a * a + b * b); }

// Householder reduction of a symmetric matrix to tridiagonal form.
// Adapted from the classic EISPACK tred2 routine; `z` holds the accumulated
// orthogonal transform on exit, `d` the diagonal, `e` the subdiagonal.
void tred2(MatrixD& z, VectorD& d, VectorD& e) {
  const std::size_t n = z.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);

  for (std::size_t i = n - 1; i > 0; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(z(i, k));
      if (scale == 0.0) {
        e[i] = z(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += z(i, k) * z(i, k);
        }
        double f = z(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = z(i, j);
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k)
            z(j, k) -= (f * e[k] + g * z(i, k));
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }

  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += z(i, k) * z(k, j);
        for (std::size_t k = 0; k < i; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      z(j, i) = 0.0;
      z(i, j) = 0.0;
    }
  }
}

// Implicit-shift QL iteration on the tridiagonal form, accumulating the
// transforms into z.  Classic tqli.  Returns false when an eigenvalue fails
// to converge within 60 sweeps (d and z are then unusable).
bool tqli(VectorD& d, VectorD& e, MatrixD& z) {
  const std::size_t n = d.size();
  if (n == 0) return true;
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  for (std::size_t l = 0; l < n; ++l) {
    int iter = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-300 ||
            std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd)
          break;
      }
      if (m != l) {
        if (iter++ == 60) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (std::size_t i = m; i-- > l;) {
          double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (std::size_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

}  // namespace

EigenResult eigh(const MatrixD& a) {
  MAKO_TRACE_SCOPE(obs::TraceCat::kLinalg, "eigh");
  MAKO_METRIC_COUNT("linalg.eigh_calls", 1);
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("eigh: matrix must be square");
  }
  const std::size_t n = a.rows();
  EigenResult result;
  result.eigenvectors = a;
  VectorD d, e;
  if (n == 0) return result;
  if (n == 1) {
    result.eigenvalues = {a(0, 0)};
    result.eigenvectors = MatrixD::identity(1);
    return result;
  }
  tred2(result.eigenvectors, d, e);
  if (!tqli(d, e, result.eigenvectors)) {
    MAKO_METRIC_COUNT("linalg.eigh_failures", 1);
    result.converged = false;
    return result;
  }

  // Sort ascending, permuting eigenvector columns accordingly.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  MatrixD sorted(n, n);
  result.eigenvalues.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    result.eigenvalues[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i)
      sorted(i, j) = result.eigenvectors(i, order[j]);
  }
  result.eigenvectors = std::move(sorted);
  return result;
}

MatrixD inverse_sqrt(const MatrixD& s, double lindep_threshold) {
  EigenResult es = eigh(s);
  if (!es.converged) {
    throw std::runtime_error("inverse_sqrt: QL iteration did not converge");
  }
  const std::size_t n = s.rows();
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (es.eigenvalues[i] > lindep_threshold) kept.push_back(i);
  }
  MatrixD x(n, kept.size());
  for (std::size_t jj = 0; jj < kept.size(); ++jj) {
    const double w = 1.0 / std::sqrt(es.eigenvalues[kept[jj]]);
    for (std::size_t i = 0; i < n; ++i)
      x(i, jj) = es.eigenvectors(i, kept[jj]) * w;
  }
  // Löwdin form X = U w^{-1/2} U^T when nothing was dropped.
  if (kept.size() == n) {
    MatrixD ut(n, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) ut(i, j) = es.eigenvectors(j, i);
    return matmul(x, ut);
  }
  return x;  // canonical orthogonalization (rectangular)
}

bool cholesky(MatrixD& a) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (d <= 0.0) return false;
    a(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / a(j, j);
    }
  }
  // Zero the strict upper triangle so a holds L.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) a(i, j) = 0.0;
  return true;
}

VectorD solve_spd(MatrixD a, VectorD b) {
  const std::size_t n = a.rows();
  MatrixD l = a;
  double reg = 0.0;
  while (!cholesky(l)) {
    reg = (reg == 0.0) ? 1e-12 : reg * 10.0;
    if (reg > 1.0) throw std::runtime_error("solve_spd: not SPD");
    l = a;
    for (std::size_t i = 0; i < n; ++i) l(i, i) += reg;
  }
  // Forward substitution L y = b.
  VectorD y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Back substitution L^T x = y.
  VectorD x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = y[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= l(k, i) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

VectorD solve_lu(MatrixD a, VectorD b) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> piv(n);
  std::iota(piv.begin(), piv.end(), 0);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::fabs(a(i, k)) > std::fabs(a(p, k))) p = i;
    if (std::fabs(a(p, k)) < 1e-300)
      throw std::runtime_error("solve_lu: singular matrix");
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(b[k], b[p]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a(i, k) / a(k, k);
      a(i, k) = f;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
      b[i] -= f * b[k];
    }
  }
  VectorD x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= a(i, j) * x[j];
    x[i] = s / a(i, i);
  }
  return x;
}

}  // namespace mako
