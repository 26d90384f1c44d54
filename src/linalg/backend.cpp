#include "linalg/backend.hpp"

#include <cassert>

#include "linalg/gemm.hpp"

namespace mako {

const GemmBackend& GemmBackend::instance() noexcept {
  static const GemmBackend backend;
  return backend;
}

void GemmBackend::fp64(const double* a, bool trans_a, const double* b,
                       bool trans_b, double* c, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, double beta) const {
  gemm_fp64_ex(a, trans_a, b, trans_b, c, m, n, k, alpha, beta);
}

void GemmBackend::mixed(const float* qa, bool trans_a, const float* qb,
                        bool trans_b, double* c, std::size_t m, std::size_t n,
                        std::size_t k, double alpha, double beta) const {
  gemm_quantized_ops(qa, trans_a, qb, trans_b, c, m, n, k, alpha, beta);
}

// --- Matrix convenience wrappers --------------------------------------------

void gemm(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb, MatrixD& c,
          double alpha, double beta) {
  const std::size_t m = (ta == Trans::kYes) ? a.cols() : a.rows();
  const std::size_t ka = (ta == Trans::kYes) ? a.rows() : a.cols();
  const std::size_t kb = (tb == Trans::kYes) ? b.cols() : b.rows();
  const std::size_t n = (tb == Trans::kYes) ? b.rows() : b.cols();
  assert(ka == kb);
  (void)kb;
  if (c.rows() != m || c.cols() != n) {
    c.resize(m, n);
  }
  gemm_fp64_ex(a.data(), ta == Trans::kYes, b.data(), tb == Trans::kYes,
               c.data(), m, n, ka, alpha, beta);
}

MatrixD matmul(const MatrixD& a, const MatrixD& b) {
  MatrixD c(a.rows(), b.cols());
  gemm(a, Trans::kNo, b, Trans::kNo, c, 1.0, 0.0);
  return c;
}

MatrixD matmul(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb) {
  MatrixD c;
  gemm(a, ta, b, tb, c, 1.0, 0.0);
  return c;
}

}  // namespace mako
