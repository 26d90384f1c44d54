#include "robust/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mako {
namespace {

std::atomic<std::uint64_t> g_domain_faults{0};

}  // namespace

bool all_finite(const double* data, std::size_t n) noexcept {
  // Summing keeps the loop branch-free; any NaN/Inf poisons the total.
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += data[i] * 0.0;
  return acc == 0.0;
}

bool all_finite(const MatrixD& m) noexcept {
  return all_finite(m.data(), m.size());
}

Status audit_finite(const MatrixD& m, const char* what) {
  if (all_finite(m)) return Status::ok();
  std::size_t bad = 0, first = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) {
      if (bad == 0) first = i;
      ++bad;
    }
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s contains %zu non-finite entries (first at flat index %zu "
                "of %zux%zu); likely a quantized-kernel overflow or an "
                "upstream domain fault",
                what, bad, first, m.rows(), m.cols());
  return Status::fault(FaultKind::kNonFinite, buf);
}

Status audit_symmetry(const MatrixD& m, const char* what, double tol) {
  char buf[256];
  if (m.rows() != m.cols()) {
    std::snprintf(buf, sizeof(buf),
                  "%s is not square (%zux%zu); cannot be a J/K/Fock matrix",
                  what, m.rows(), m.cols());
    return Status::fault(FaultKind::kAsymmetry, buf);
  }
  double max_abs = 1.0;
  double max_skew = 0.0;
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      max_abs = std::max(max_abs, std::fabs(m(i, j)));
      max_skew = std::max(max_skew, std::fabs(m(i, j) - m(j, i)));
    }
  }
  if (!(max_skew <= tol * max_abs)) {  // NaN skew fails the comparison too
    std::snprintf(buf, sizeof(buf),
                  "%s lost symmetry: max |M - M^T| = %.3e; the digest "
                  "permutation weights or a shard reduction are suspect",
                  what, max_skew);
    return Status::fault(FaultKind::kAsymmetry, buf);
  }
  return Status::ok();
}

Status audit_eigen(const EigenResult& es, const char* what,
                   std::size_t probe_cols, double ortho_tol) {
  char buf[256];
  const std::size_t nev = es.eigenvalues.size();
  for (std::size_t i = 0; i < nev; ++i) {
    if (!std::isfinite(es.eigenvalues[i])) {
      std::snprintf(buf, sizeof(buf),
                    "%s eigenvalue %zu is non-finite; the Fock matrix fed to "
                    "the diagonalizer was corrupt",
                    what, i);
      return Status::fault(FaultKind::kEigenDisorder, buf);
    }
    if (i > 0 && es.eigenvalues[i] + 1e-10 < es.eigenvalues[i - 1]) {
      std::snprintf(buf, sizeof(buf),
                    "%s eigenvalues not ascending at index %zu; solver "
                    "ordering contract violated",
                    what, i);
      return Status::fault(FaultKind::kEigenDisorder, buf);
    }
  }

  // Orthonormality probe on the leading block: G = V_p^T V_p vs I.
  const MatrixD& v = es.eigenvectors;
  const std::size_t cols =
      (probe_cols == 0) ? v.cols() : std::min(probe_cols, v.cols());
  double max_dev = 0.0;
  for (std::size_t a = 0; a < cols; ++a) {
    for (std::size_t b = a; b < cols; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < v.rows(); ++i) dot += v(i, a) * v(i, b);
      const double target = (a == b) ? 1.0 : 0.0;
      max_dev = std::max(max_dev, std::fabs(dot - target));
    }
  }
  if (!(max_dev <= ortho_tol)) {
    std::snprintf(buf, sizeof(buf),
                  "%s eigenvector block lost orthonormality: max |V^T V - I| "
                  "= %.3e over %zu probed columns",
                  what, max_dev, cols);
    return Status::fault(FaultKind::kOrthonormalityLoss, buf);
  }
  return Status::ok();
}

std::uint64_t domain_fault_count() noexcept {
  return g_domain_faults.load(std::memory_order_relaxed);
}

void record_domain_fault() noexcept {
  g_domain_faults.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mako
