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
// precision plan.  Where the QUICK role can run the basis it runs the same
// computation as the GPU4PySCF role, so both columns report one
// measurement.
//
// The "vs" columns fold in the pool's thread parallelism (Mako's J/K runs
// on the process pool, the baseline on one thread); the "1T J/K" column is
// the J/K ratio with both on one thread, the counterpart of the paper's
// per-GPU ratio.
#include <cstdio>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "reference_fock.hpp"
#include "scf/scf.hpp"

int main() {
  using namespace mako;
  const std::vector<std::string> bases = {"def2-tzvp", "cc-pvtz", "def2-qzvp",
                                          "cc-pvqz"};
  const Molecule mol = make_water();

  std::printf("[Figure 9] Average speedup per basis set (water, 2 fixed SCF "
              "iterations)\n");
  std::printf("%-11s %5s %6s %14s %15s %9s %16s %14s\n", "basis", "max-l",
              "nbf", "t[mako] s", "vs GPU4PySCF*", "1T J/K", "vs QUICK*",
              "notes");

  for (const std::string& basis : bases) {
    const BasisSet bs(mol, basis);
    ScfOptions options;
    options.fixed_iterations = 2;
    const ScfResult run = run_scf(mol, bs, options);
    const double t_mako = run.avg_iteration_seconds();
    const BaselineIteration base = baseline_iteration(bs, options, run);
    const bool quick_runs = bs.max_l() <= kQuickMaxL;

    char gpu_col[32], quick_col[32];
    std::snprintf(gpu_col, sizeof(gpu_col), "%.2fx", base.seconds / t_mako);
    if (quick_runs) {
      std::snprintf(quick_col, sizeof(quick_col), "%s", gpu_col);
    } else {
      std::snprintf(quick_col, sizeof(quick_col), "unsupported");
    }
    std::printf("%-11s %5d %6zu %14.3f %15s %8.2fx %16s %14s\n",
                basis.c_str(), bs.max_l(), bs.nbf(), t_mako, gpu_col,
                base.same_thread_jk_speedup(), quick_col,
                quick_runs ? "" : "(no g support)");
  }

  std::printf("\npaper shape: speedup grows with angular momentum (up to "
              "~20x at QZ level on A100); QUICK lacks g functions, so the "
              "def2-QZVP / cc-pVQZ rows are unsupported.\n");
  return 0;
}
