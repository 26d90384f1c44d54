#include "core/mako.hpp"

#include <sstream>

#include "basis/basis_set.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace mako {

std::string MakoReport::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(10);
  out << "== Mako run report ==\n";
  out << "basis functions:        " << nbf << " (" << num_shells
      << " shells)\n";
  if (ranks > 1) {
    out << "ranks:                  " << ranks << " (simcomm)\n";
  }
  out << "SCF iterations:         " << scf.iterations
      << (scf.converged ? " (converged)" : " (NOT converged)");
  if (scf.resumed_from > 0) {
    out << " [resumed from iteration " << scf.resumed_from << "]";
  }
  out << "\n";
  out << "health:                 " << to_string(scf.health) << "\n";
  out << "Total Energy:           " << scf.energy << " Eh\n";
  out << "  nuclear repulsion:    " << scf.e_nuclear << "\n";
  out << "  one-electron:         " << scf.e_one_electron << "\n";
  out << "  Coulomb:              " << scf.e_coulomb << "\n";
  out << "  exact exchange:       " << scf.e_exact_exchange << "\n";
  out << "  XC functional:        " << scf.e_xc << "\n";
  out.precision(4);
  out << "total wall-clock time:  " << total_seconds << " s\n";
  out << "avg SCF iteration time: " << scf.avg_iteration_seconds()
      << " s (excluding first iteration)\n";
  if (ranks > 1) {
    out.precision(6);
    out << "modeled comm time:      " << scf.comm_seconds << " s ("
        << scf.comm_bytes << " bytes, " << scf.comm_retries << " retries)\n";
    out.precision(4);
  }
  return out.str();
}

MakoEngine::MakoEngine(MakoOptions options)
    : options_(std::move(options)),
      context_(ExecutionContextOptions{.ranks = options_.ranks,
                                       .cluster = options_.cluster}) {}

ScfOptions scf_options_from(const MakoOptions& options) {
  ScfOptions scf;
  scf.xc = XcFunctional::from_name(options.functional);
  scf.fock.batch_size = options.batch_size;
  scf.grid = options.grid;
  scf.max_iterations = options.max_iterations;
  scf.fixed_iterations = options.fixed_iterations;
  scf.energy_convergence = options.convergence;
  scf.enable_quantization = options.quantization;
  // The single precision-resolution point: mode names (and the
  // MAKO_PRECISION fallback for "") are parsed here, so engine and batch
  // runs see identical governance and direct run_scf callers are immune to
  // the environment.  Unknown names throw InputError (kInvalidInput).
  scf.precision.mode = resolve_precision_mode(options.precision);
  scf.precision.use_precision_ladder = options.precision_ladder;
  scf.durability = options.durability;
  scf.robust.watchdog_seconds = options.watchdog_seconds;
  return scf;
}

MakoReport MakoEngine::compute_energy(const Molecule& mol) {
  MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "mako.compute_energy");
  Timer total;
  MakoReport report;
  report.ranks = context_.comm().size();

  const BasisSet basis(mol, options_.basis);
  report.nbf = basis.nbf();
  report.num_shells = basis.num_shells();

  report.scf = run_scf(mol, basis, scf_options_from(options_), &context_);
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace mako
