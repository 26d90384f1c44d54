// [Figure 9] Average speedup across basis sets with progressively higher
// angular momentum (def2-TZVP, cc-pVTZ -> def2-QZVP, cc-pVQZ).
//
// Reproduces the paper's two findings: (1) Mako's advantage over the
// per-quartet GPU4PySCF-role baseline grows with the basis's angular
// momentum; (2) the QUICK-role baseline (angular momentum capped at f)
// cannot run the QZ-level basis sets at all.  Both baselines are
// bench/reference_fock.hpp: a baseline iteration is the measured Mako
// iteration with the Mako J/K wall time replaced by the baseline's J/K wall
// time, both timed on the Mako run's final density under its final
// precision plan.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "reference_fock.hpp"
#include "scf/scf.hpp"

namespace {
using namespace mako;

/// Baseline iteration time on `run`; returns <0 when the baseline cannot
/// run the basis (the QUICK failure mode).
double baseline_or_fail(const BasisSet& bs, const ScfOptions& options,
                        const ScfResult& run, int max_l) {
  try {
    return baseline_iteration(bs, options, run, max_l).seconds;
  } catch (const std::domain_error&) {
    return -1.0;
  }
}

}  // namespace

int main() {
  const std::vector<std::string> bases = {"def2-tzvp", "cc-pvtz", "def2-qzvp",
                                          "cc-pvqz"};
  const Molecule mol = make_water();

  std::printf("[Figure 9] Average speedup per basis set (water, 2 fixed SCF "
              "iterations)\n");
  std::printf("%-11s %5s %6s %14s %15s %16s %14s\n", "basis", "max-l", "nbf",
              "t[mako] s", "vs GPU4PySCF*", "vs QUICK*", "notes");

  for (const std::string& basis : bases) {
    const BasisSet bs(mol, basis);
    ScfOptions options;
    options.fixed_iterations = 2;
    const ScfResult run = run_scf(mol, bs, options);
    const double t_mako = run.avg_iteration_seconds();
    const double t_gpu4pyscf =
        baseline_or_fail(bs, options, run, ReferenceEriEngine::kMaxL);
    const double t_quick = baseline_or_fail(bs, options, run, kQuickMaxL);

    char gpu_col[32], quick_col[32];
    std::snprintf(gpu_col, sizeof(gpu_col), "%.2fx", t_gpu4pyscf / t_mako);
    if (t_quick < 0) {
      std::snprintf(quick_col, sizeof(quick_col), "unsupported");
    } else {
      std::snprintf(quick_col, sizeof(quick_col), "%.2fx", t_quick / t_mako);
    }
    std::printf("%-11s %5d %6zu %14.3f %15s %16s %14s\n", basis.c_str(),
                bs.max_l(), bs.nbf(), t_mako, gpu_col, quick_col,
                t_quick < 0 ? "(no g support)" : "");
  }

  std::printf("\npaper shape: speedup grows with angular momentum (up to "
              "~20x at QZ level on A100); QUICK lacks g functions, so the "
              "def2-QZVP / cc-pVQZ rows are unsupported.\n");
  return 0;
}
