#include "linalg/backend.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "linalg/gemm.hpp"
#include "obs/metrics.hpp"
#include "robust/status.hpp"

namespace mako {

// --- GemmBackend (NVI shell) ------------------------------------------------

GemmBackend::GemmBackend(std::string name, GemmCapabilities caps)
    : name_(std::move(name)),
      caps_(std::move(caps)),
      dispatches_(&obs::MetricsRegistry::global().counter("gemm.dispatch." +
                                                          name_)) {}

GemmBackend::~GemmBackend() = default;

void GemmBackend::fp64(const double* a, bool trans_a, const double* b,
                       bool trans_b, double* c, std::size_t m, std::size_t n,
                       std::size_t k, double alpha, double beta) const {
  dispatches_->add();
  do_fp64(a, trans_a, b, trans_b, c, m, n, k, alpha, beta);
}

void GemmBackend::mixed(const float* qa, bool trans_a, const float* qb,
                        bool trans_b, double* c, std::size_t m, std::size_t n,
                        std::size_t k, double alpha, double beta) const {
  dispatches_->add();
  do_mixed(qa, trans_a, qb, trans_b, c, m, n, k, alpha, beta);
}

std::int64_t GemmBackend::dispatches() const noexcept {
  return dispatches_->value();
}

namespace {

/// op(X)(r, c) for a dense row-major operand with optional transpose.
template <typename T>
inline T ref_at(const T* x, bool trans, std::size_t ld, std::size_t r,
                std::size_t c) {
  return trans ? x[c * ld + r] : x[r * ld + c];
}

// --- reference: textbook triple loops ---------------------------------------
//
// The numerical oracle: no tiling, no packing, no config sensitivity.  Every
// other backend must reproduce its FP64 results to rounding error, and it is
// the fallback CI leg (MAKO_BACKEND=reference) guards.
class ReferenceBackend final : public GemmBackend {
 public:
  ReferenceBackend()
      : GemmBackend("reference",
                    {/*quantized=*/false,
                     "naive triple-loop kernels (numerical oracle)"}) {}

 protected:
  void do_fp64(const double* a, bool trans_a, const double* b, bool trans_b,
               double* c, std::size_t m, std::size_t n, std::size_t k,
               double alpha, double beta) const override {
    const std::size_t lda = trans_a ? m : k;
    const std::size_t ldb = trans_b ? k : n;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t p = 0; p < k; ++p) {
          acc += ref_at(a, trans_a, lda, i, p) * ref_at(b, trans_b, ldb, p, j);
        }
        c[i * n + j] = beta * c[i * n + j] + alpha * acc;
      }
    }
  }

  void do_mixed(const float* qa, bool trans_a, const float* qb, bool trans_b,
                double* c, std::size_t m, std::size_t n, std::size_t k,
                double alpha, double beta) const override {
    const std::size_t lda = trans_a ? m : k;
    const std::size_t ldb = trans_b ? k : n;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;  // FP32 accumulation: stage one of dual-stage
        for (std::size_t p = 0; p < k; ++p) {
          acc +=
              ref_at(qa, trans_a, lda, i, p) * ref_at(qb, trans_b, ldb, p, j);
        }
        c[i * n + j] = beta * c[i * n + j] + alpha * static_cast<double>(acc);
      }
    }
  }
};

// --- blocked+quantized: the full dual-stage default -------------------------
//
// Routes to the packed BLIS-style kernels in gemm.cpp, with the
// reduced-precision capability, so the ERI engine's FP16/TF32-rounded
// operands really accumulate at FP32 (tensor-core numerics).  This is the
// process default.
class BlockedQuantizedBackend final : public GemmBackend {
 public:
  BlockedQuantizedBackend()
      : GemmBackend(
            GemmBackendRegistry::kDefaultName,
            {/*quantized=*/true,
             "register-blocked kernels + FP16/TF32 dual-stage datapath"}) {}

 protected:
  void do_fp64(const double* a, bool trans_a, const double* b, bool trans_b,
               double* c, std::size_t m, std::size_t n, std::size_t k,
               double alpha, double beta) const override {
    gemm_fp64_ex(a, trans_a, b, trans_b, c, m, n, k, alpha, beta);
  }

  void do_mixed(const float* qa, bool trans_a, const float* qb, bool trans_b,
                double* c, std::size_t m, std::size_t n, std::size_t k,
                double alpha, double beta) const override {
    gemm_quantized_ops(qa, trans_a, qb, trans_b, c, m, n, k, alpha, beta);
  }
};

}  // namespace

// --- GemmBackendRegistry ----------------------------------------------------

struct GemmBackendRegistry::Impl {
  mutable std::mutex mutex;  ///< guards `backends`, not the backends
  std::map<std::string, std::unique_ptr<GemmBackend>, std::less<>> backends;
  std::atomic<const GemmBackend*> active{nullptr};
};

GemmBackendRegistry::GemmBackendRegistry() : impl_(new Impl) {
  impl_->backends.emplace("reference", std::make_unique<ReferenceBackend>());
  impl_->backends.emplace(kDefaultName,
                          std::make_unique<BlockedQuantizedBackend>());
}

GemmBackendRegistry& GemmBackendRegistry::instance() {
  static GemmBackendRegistry* registry = new GemmBackendRegistry();  // leaky
  return *registry;
}

void GemmBackendRegistry::register_backend(
    std::unique_ptr<GemmBackend> backend) {
  assert(backend != nullptr);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const std::string& name = backend->name();
  if (!impl_->backends.emplace(name, std::move(backend)).second) {
    throw InputError(FaultKind::kInvalidInput,
                     "GEMM backend '" + name + "' is already registered");
  }
}

const GemmBackend* GemmBackendRegistry::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->backends.find(name);
  return it == impl_->backends.end() ? nullptr : it->second.get();
}

const GemmBackend& GemmBackendRegistry::resolve(std::string_view name) const {
  std::string_view effective = name;
  if (effective.empty()) {
    const char* env = std::getenv("MAKO_BACKEND");
    effective = (env != nullptr && env[0] != '\0') ? env : kDefaultName;
  }
  if (const GemmBackend* backend = find(effective)) {
    return *backend;
  }
  std::ostringstream msg;
  msg << "unknown GEMM backend '" << effective << "'; registered backends:";
  for (const std::string& known : names()) msg << " " << known;
  msg << " (select via --backend=NAME, MakoOptions::backend, or the "
         "MAKO_BACKEND environment variable)";
  throw InputError(FaultKind::kInvalidInput, msg.str());
}

std::vector<std::string> GemmBackendRegistry::names() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->backends.size());
  for (const auto& [name, backend] : impl_->backends) out.push_back(name);
  return out;  // std::map iteration order is already sorted
}

const GemmBackend& GemmBackendRegistry::active() const {
  const GemmBackend* current = impl_->active.load(std::memory_order_acquire);
  if (current == nullptr) {
    // First use: honor the MAKO_BACKEND override so whole-process runs (the
    // CI reference leg, `MAKO_BACKEND=reference ctest`) route every ambient
    // matmul through the selected backend.
    current = &resolve({});
    impl_->active.store(current, std::memory_order_release);
  }
  return *current;
}

void GemmBackendRegistry::set_active(const GemmBackend& backend) noexcept {
  impl_->active.store(&backend, std::memory_order_release);
}

const GemmBackend& resolve_gemm_backend(std::string_view name) {
  return GemmBackendRegistry::instance().resolve(name);
}

// --- Matrix convenience wrappers --------------------------------------------

void gemm(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb, MatrixD& c,
          double alpha, double beta, const GemmBackend* backend) {
  const std::size_t m = (ta == Trans::kYes) ? a.cols() : a.rows();
  const std::size_t ka = (ta == Trans::kYes) ? a.rows() : a.cols();
  const std::size_t kb = (tb == Trans::kYes) ? b.cols() : b.rows();
  const std::size_t n = (tb == Trans::kYes) ? b.rows() : b.cols();
  assert(ka == kb);
  (void)kb;
  if (c.rows() != m || c.cols() != n) {
    c.resize(m, n);
  }
  const GemmBackend& be =
      backend != nullptr ? *backend : GemmBackendRegistry::instance().active();
  be.fp64(a.data(), ta == Trans::kYes, b.data(), tb == Trans::kYes, c.data(),
          m, n, ka, alpha, beta);
}

MatrixD matmul(const MatrixD& a, const MatrixD& b, const GemmBackend* backend) {
  MatrixD c(a.rows(), b.cols());
  gemm(a, Trans::kNo, b, Trans::kNo, c, 1.0, 0.0, backend);
  return c;
}

MatrixD matmul(const MatrixD& a, Trans ta, const MatrixD& b, Trans tb,
               const GemmBackend* backend) {
  MatrixD c;
  gemm(a, ta, b, tb, c, 1.0, 0.0, backend);
  return c;
}

}  // namespace mako
