// Backend-parity contract of the pluggable GEMM layer: every registered
// backend must run the same chemistry.
//
//   * FP64 SCF energies (H2/HF and water/B3LYP) agree across all backends to
//     1e-9 Eh — the backends differ only in loop order and packing, and the
//     SCF fixed point is insensitive to the associativity-level differences
//     that remain.
//   * Quantized SCF on "blocked+quantized" stays within 1 mEh of FP64 (the
//     Table-3 chemical-accuracy contract); backends without the quantized
//     capability degrade the schedule to pure FP64 and match exactly.
//   * Each run dispatches GEMMs through the selected backend only — the
//     per-backend dispatch counters prove the routing, not just the result.
//
// Besides the two built-ins, every loop here also runs an FP64-only test
// double registered through the public register_backend, so the
// capability-degradation path is covered without a production backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "linalg/backend.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

/// FP64-only capability double: plain i-k-j loops and no reduced-precision
/// datapath, so the governor must plan every quantized request at FP64.
class Fp64OnlyBackend final : public GemmBackend {
 public:
  static constexpr const char* kName = "test-fp64-only";
  Fp64OnlyBackend()
      : GemmBackend(kName, {/*quantized=*/false, "test double, FP64 only"}) {}

 protected:
  void do_fp64(const double* a, bool trans_a, const double* b, bool trans_b,
               double* c, std::size_t m, std::size_t n, std::size_t k,
               double alpha, double beta) const override {
    const std::size_t lda = trans_a ? m : k;
    const std::size_t ldb = trans_b ? k : n;
    std::vector<double> acc(n);
    for (std::size_t i = 0; i < m; ++i) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = trans_a ? a[p * lda + i] : a[i * lda + p];
        for (std::size_t j = 0; j < n; ++j) {
          acc[j] += aip * (trans_b ? b[j * ldb + p] : b[p * ldb + j]);
        }
      }
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] = beta * c[i * n + j] + alpha * acc[j];
      }
    }
  }

  void do_mixed(const float*, bool, const float*, bool, double*, std::size_t,
                std::size_t, std::size_t, double, double) const override {
    ADD_FAILURE() << "quantized work routed to an FP64-only backend";
  }
};

// Registered before any test runs, so names() lists it in every loop.
const bool kFp64OnlyRegistered = [] {
  GemmBackendRegistry::instance().register_backend(
      std::make_unique<Fp64OnlyBackend>());
  return true;
}();

Molecule h2_molecule() {
  Molecule m;
  m.add_atom(1, 0, 0, 0);
  m.add_atom(1, 0, 0, 1.4);
  return m;
}

/// Runs one SCF entirely on `backend_name` and returns the result.
ScfResult run_on_backend(const std::string& backend_name, const Molecule& mol,
                         const BasisSet& basis, ScfOptions options = {}) {
  ExecutionContextOptions ctx_options;
  ctx_options.backend = backend_name;
  ctx_options.enable_quantization = options.enable_quantization;
  const ExecutionContext ctx(ctx_options);
  return run_scf(mol, basis, options, &ctx);
}

TEST(BackendParityTest, RegistryHasTheBuiltinsAndTheDouble) {
  const GemmBackendRegistry& registry = GemmBackendRegistry::instance();
  ASSERT_TRUE(kFp64OnlyRegistered);
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"blocked+quantized", "reference",
                                      Fp64OnlyBackend::kName}));
  // `blocked` (the default kernels without the quantized flag) is not a
  // production backend: selecting it is the usual actionable InputError.
  EXPECT_EQ(registry.find("blocked"), nullptr);
  try {
    (void)registry.resolve("blocked");
    FAIL() << "expected InputError for the retired 'blocked' backend";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("blocked+quantized"),
              std::string::npos)
        << e.what();
  }
}

TEST(BackendParityTest, UnknownBackendThrowsActionableError) {
  ExecutionContextOptions options;
  options.backend = "tpu-v9";
  try {
    ExecutionContext ctx(options);
    FAIL() << "expected InputError for unknown backend";
  } catch (const InputError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tpu-v9"), std::string::npos) << msg;
    // Actionable: the message lists what IS registered.
    EXPECT_NE(msg.find("reference"), std::string::npos) << msg;
  }
}

/// Tight convergence pins the SCF fixed point well below the 1e-9 parity
/// tolerance, so the comparison measures backend agreement rather than
/// which iteration each backend happened to stop on.
ScfOptions tight_options() {
  ScfOptions options;
  options.energy_convergence = 1e-11;
  options.diis_convergence = 1e-9;
  return options;
}

TEST(BackendParityTest, H2EnergyAgreesAcrossAllBackendsAtFp64) {
  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  std::map<std::string, double> energies;
  for (const std::string& name : GemmBackendRegistry::instance().names()) {
    const ScfResult r = run_on_backend(name, h2, bs, tight_options());
    EXPECT_TRUE(r.converged) << name;
    energies[name] = r.energy;
  }
  const double e_ref = energies.at("reference");
  EXPECT_NEAR(e_ref, -1.1167, 2e-4);  // Szabo-Ostlund anchor
  for (const auto& [name, e] : energies) {
    EXPECT_NEAR(e, e_ref, 1e-9) << name;
  }
}

TEST(BackendParityTest, WaterB3lypEnergyAgreesAcrossAllBackendsAtFp64) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions options = tight_options();
  options.xc = XcFunctional(XcKind::kB3LYP);
  std::map<std::string, double> energies;
  for (const std::string& name : GemmBackendRegistry::instance().names()) {
    const ScfResult r = run_on_backend(name, w, bs, options);
    EXPECT_TRUE(r.converged) << name;
    energies[name] = r.energy;
  }
  const double e_ref = energies.at("reference");
  for (const auto& [name, e] : energies) {
    EXPECT_NEAR(e, e_ref, 1e-9) << name;
  }
}

TEST(BackendParityTest, QuantizedBackendStaysWithinChemicalAccuracy) {
  // Quantized kernels round operands to FP16/TF32 storage, so exact FP64
  // agreement is impossible by design; the documented contract is the
  // Table-3 bound of 1 mEh after the final exact iteration.
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const double e_fp64 =
      run_on_backend(GemmBackendRegistry::kDefaultName, w, bs).energy;

  ScfOptions quant;
  quant.enable_quantization = true;
  const ScfResult r =
      run_on_backend(GemmBackendRegistry::kDefaultName, w, bs, quant);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(std::fabs(r.energy - e_fp64), 1e-3);
}

TEST(BackendParityTest, NonQuantizedBackendDegradesScheduleToFp64) {
  // With quantization requested on a backend without the capability, the
  // driver must run pure FP64 (no silently-degraded quantized routing).
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions quant;
  quant.enable_quantization = true;
  const ScfResult r = run_on_backend(Fp64OnlyBackend::kName, w, bs, quant);
  EXPECT_TRUE(r.converged);
  std::int64_t quantized = 0;
  for (const auto& rec : r.iteration_log) quantized += rec.quartets_quantized;
  EXPECT_EQ(quantized, 0);

  const double e_fp64 = run_on_backend(Fp64OnlyBackend::kName, w, bs).energy;
  EXPECT_NEAR(r.energy, e_fp64, 1e-12);
}

TEST(BackendParityTest, DispatchCountersTrackOnlyTheSelectedBackend) {
  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  GemmBackendRegistry& registry = GemmBackendRegistry::instance();
  const std::vector<std::string> names = registry.names();

  for (const std::string& selected : names) {
    std::map<std::string, std::int64_t> before;
    for (const std::string& n : names) {
      before[n] = registry.find(n)->dispatches();
    }
    const ScfResult r = run_on_backend(selected, h2, bs);
    ASSERT_TRUE(r.converged) << selected;
    for (const std::string& n : names) {
      const std::int64_t delta = registry.find(n)->dispatches() - before[n];
      if (n == selected) {
        EXPECT_GT(delta, 0) << "selected backend " << n << " never dispatched";
      } else {
        EXPECT_EQ(delta, 0) << "backend " << n << " dispatched during a "
                            << selected << " run";
      }
    }
  }
}

}  // namespace
}  // namespace mako
