#include "scf/scf.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/execution_context.hpp"
#include "integrals/one_electron.hpp"
#include "linalg/backend.hpp"
#include "linalg/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/audit.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault_injector.hpp"
#include "robust/watchdog.hpp"
#include "scf/diis.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

/// Closed-shell density D = 2 C_occ C_occ^T from MO coefficients.
MatrixD build_density(const MatrixD& c, std::size_t nocc) {
  const std::size_t n = c.rows();
  MatrixD d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t o = 0; o < nocc; ++o) acc += c(i, o) * c(j, o);
      d(i, j) = 2.0 * acc;
    }
  }
  return d;
}

inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

/// Content fingerprint of everything that shapes the SCF trajectory: the
/// basis (via FockPlan::fingerprint), molecule, backend, rank count, XC
/// functional and grid, ERI engine, and every trajectory-shaping option.  A
/// checkpoint restore validates this — resuming against a different problem
/// must fail loudly, never compute garbage.
std::uint64_t scf_fingerprint(const Molecule& mol, const BasisSet& basis,
                              const ScfOptions& options,
                              const std::string& backend_name, int ranks) {
  std::uint64_t h = FockPlan::fingerprint(basis);
  const int charge = mol.charge();
  fnv1a(h, &charge, sizeof charge);
  for (const Atom& a : mol.atoms()) {
    fnv1a(h, &a.z, sizeof a.z);
    fnv1a(h, &a.position, 3 * sizeof(double));
  }
  const char* xc_name = options.xc.name();
  fnv1a(h, xc_name, std::strlen(xc_name));
  fnv1a(h, backend_name.data(), backend_name.size());
  const std::int32_t ints[] = {
      static_cast<std::int32_t>(options.diagonalizer),
      options.incremental_fock ? 1 : 0,
      options.incremental_rebuild_period,
      options.use_diis ? 1 : 0,
      options.enable_quantization ? 1 : 0,
      options.fixed_iterations,
      options.robust.sentinels ? 1 : 0,
      options.robust.recovery ? 1 : 0,
      options.robust.divergence_window,
      options.robust.stagnation_window,
      options.robust.max_retries_per_iteration,
      static_cast<std::int32_t>(options.subspace_max_iter),
      // Precision governance: mode, kernel format, ladder, and per-L cap all
      // shape the trajectory — a checkpoint written under one --precision
      // must be refused under another (kCheckpointMismatch), never resumed
      // with silently different precision semantics.
      static_cast<std::int32_t>(options.precision.mode),
      static_cast<std::int32_t>(options.precision.quant_precision),
      options.precision.use_precision_ladder ? 1 : 0,
      options.precision.quantized_max_l,
      // Rank topology: results are bit-identical across rank counts, but
      // comm accounting and failure behavior are not — a checkpoint written
      // under one topology must be refused under another rather than
      // resuming with silently different collective semantics.
      ranks,
  };
  fnv1a(h, ints, sizeof ints);
  const double doubles[] = {
      options.energy_convergence,    options.diis_convergence,
      options.lindep_threshold,      options.prune_threshold,
      options.subspace_tol,          options.robust.divergence_tol,
      options.robust.stagnation_factor, options.robust.damping_factor,
      options.robust.level_shift,    options.robust.symmetry_tol,
      options.robust.ortho_tol,      options.precision.start_fp64_threshold,
      options.precision.end_fp64_threshold,
      options.precision.prune_threshold,
      options.precision.exact_switch_error,
      options.precision.ladder_switch_error,
  };
  fnv1a(h, doubles, sizeof doubles);
  // The XC quadrature and the ERI engine shape the trajectory too (engines
  // are not bit-identical).  They joined the hash after format v2 shipped,
  // so they are mixed in only when they differ from the ScfOptions defaults:
  // a checkpoint written under the defaults before then still restores,
  // while a restore across any grid or engine change is refused.
  const auto grid_engine = [](const ScfOptions& o) {
    return std::array<std::int32_t, 5>{
        o.grid.radial_points, o.grid.theta_points, o.grid.phi_points,
        o.grid.becke_k, static_cast<std::int32_t>(o.fock.engine)};
  };
  const auto ge = grid_engine(options);
  if (ge != grid_engine(ScfOptions{})) fnv1a(h, ge.data(), sizeof ge);
  return h;
}

void validate_inputs(const Molecule& mol, const BasisSet& basis,
                     std::size_t* nocc_out) {
  const int nelec = mol.num_electrons();
  char msg[256];
  if (nelec <= 0) {
    std::snprintf(msg, sizeof msg,
                  "run_scf: molecule has %d electrons (sum of nuclear charges "
                  "minus charge %+d); a closed-shell SCF needs at least 2 — "
                  "check the charge sign and magnitude",
                  nelec, mol.charge());
    throw InputError(FaultKind::kInvalidInput, msg);
  }
  if (nelec % 2 != 0) {
    std::snprintf(msg, sizeof msg,
                  "run_scf: odd electron count %d (charge %+d) is open-shell; "
                  "this driver is restricted closed-shell RHF/RKS only — "
                  "adjust the charge to %+d or %+d for a closed-shell state",
                  nelec, mol.charge(), mol.charge() - 1, mol.charge() + 1);
    throw InputError(FaultKind::kInvalidInput, msg);
  }
  const std::size_t nocc = static_cast<std::size_t>(nelec) / 2;
  if (nocc > basis.nbf()) {
    std::snprintf(msg, sizeof msg,
                  "run_scf: basis provides %zu orbitals but %zu doubly-"
                  "occupied orbitals are required for %d electrons; use a "
                  "larger basis set",
                  basis.nbf(), nocc, nelec);
    throw InputError(FaultKind::kInvalidInput, msg);
  }
  *nocc_out = nocc;
}

/// Refuses a restored state that does not fit this problem.  A file with
/// consistent CRCs and the right fingerprint can still carry any shape or
/// iteration cursor, and the loop indexes the matrices as nbf x nbf (AO
/// basis), northo x northo (orthogonal basis) or northo x nocc.  The MO
/// coefficients hold between nocc (subspace diagonalizer) and northo
/// columns, one orbital energy each.
void validate_restored_state(const ScfState& st, const std::string& path,
                             std::size_t nbf, std::size_t northo,
                             std::size_t nocc) {
  char msg[320];
  if (st.next_iteration < 0) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint '%s': iteration cursor %d is negative",
                  path.c_str(), st.next_iteration);
    throw InputError(FaultKind::kCheckpointCorrupt, msg);
  }
  const auto refuse = [&](const char* what, std::size_t rows,
                          std::size_t cols, const char* expected) {
    std::snprintf(msg, sizeof msg,
                  "checkpoint '%s': %s is %zux%zu, expected %s (nbf %zu, "
                  "orthogonal dimension %zu, nocc %zu)",
                  path.c_str(), what, rows, cols, expected, nbf, northo,
                  nocc);
    throw InputError(FaultKind::kCheckpointCorrupt, msg);
  };
  const auto check = [&](const MatrixD& m, std::size_t rows, std::size_t cols,
                         const char* what, const char* expected) {
    if (m.rows() != rows || m.cols() != cols) {
      refuse(what, m.rows(), m.cols(), expected);
    }
  };
  check(st.density, nbf, nbf, "density", "nbf x nbf");
  check(st.fock, nbf, nbf, "Fock matrix", "nbf x nbf");
  check(st.d_prev, nbf, nbf, "previous density", "nbf x nbf");
  check(st.j_prev, nbf, nbf, "previous J", "nbf x nbf");
  check(st.k_prev, nbf, nbf, "previous K", "nbf x nbf");
  check(st.prev_y_occ, northo, nocc, "occupied block", "northo x nocc");
  for (std::size_t i = 0; i < st.diis_focks.size(); ++i) {
    check(st.diis_focks[i], nbf, nbf, "DIIS Fock matrix", "nbf x nbf");
    check(st.diis_errors[i], northo, northo, "DIIS error matrix",
          "northo x northo");
  }
  const MatrixD& c = st.coefficients;
  if (c.rows() != nbf || c.cols() < nocc || c.cols() > northo) {
    refuse("MO coefficient matrix", c.rows(), c.cols(),
           "nbf x (nocc..northo)");
  }
  if (st.orbital_energies.size() != c.cols()) {
    refuse("orbital energy vector", st.orbital_energies.size(), 1,
           "one per MO coefficient column");
  }
}

}  // namespace

double ScfResult::avg_iteration_seconds() const {
  if (iteration_log.size() <= 1) {
    return iteration_log.empty() ? 0.0 : iteration_log.front().seconds;
  }
  double total = 0.0;
  for (std::size_t i = 1; i < iteration_log.size(); ++i) {
    total += iteration_log[i].seconds;
  }
  return total / static_cast<double>(iteration_log.size() - 1);
}

ScfResult run_scf(const Molecule& mol, const BasisSet& basis,
                  const ScfOptions& options, const ExecutionContext* ctx) {
  std::size_t nocc = 0;
  validate_inputs(mol, basis, &nocc);

  MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "scf.run");
  MAKO_METRIC_COUNT("scf.runs", 1);

  // Execution environment: the engine-owned context, or the process default.
  const ExecutionContext& exec = ctx ? *ctx : ExecutionContext::process();
  const GemmBackend* const be = &exec.backend();
  // Rank communicator of the run ("local" on one rank).  The driver itself
  // stays replicated — DIIS, diagonalization, and the convergence test run
  // identically on every rank — while the Fock build is owner-computes with
  // allreduced partials (fock.cpp) and the initial guess is broadcast below.
  Communicator& comm = exec.comm();

  ScfResult result;

  // One-electron pieces and the orthogonalizer.
  const MatrixD s = overlap_matrix(basis);
  const MatrixD x = inverse_sqrt(s, options.lindep_threshold);
  const MatrixD hcore = core_hamiltonian(basis, mol);

  // XC machinery.
  const XcFunctional& xc = options.xc;
  const double cx = xc.exact_exchange();
  std::unique_ptr<MolecularGrid> grid;
  if (!xc.is_hf_only()) {
    grid = std::make_unique<MolecularGrid>(mol, options.grid);
  }

  // Fock builder over the chosen ERI engine.
  FockBuilder fock_builder(basis, options.fock, &exec);

  // The run's precision authority: every per-iteration plan — thresholds,
  // kernel format, allow_quantized verdict, per-L cap — comes from here.
  // Capability degradation (quantization requested on a backend without a
  // reduced-precision datapath) is counted and carries a reason; the
  // governor then plans pure FP64 rather than silently running quantized
  // math at full precision with loosened prune thresholds.
  PrecisionGovernor governor = exec.make_governor(
      options.precision, options.enable_quantization, options.prune_threshold);

  const int niter = (options.fixed_iterations > 0) ? options.fixed_iterations
                                                   : options.max_iterations;
  const ResilienceOptions& robust = options.robust;
  const DurabilityOptions& dur = options.durability;

  // Cooperative cancellation: the run's token (CLI signal handlers or a test
  // request() trip it) plus an optional wall-clock budget armed as a deadline
  // on the same token.  ScopedDeadline disarms on exit so a later run in this
  // process is not cancelled by THIS run's expired budget.
  CancelToken& cancel = exec.cancel();
  ScopedDeadline deadline_guard(cancel, dur.max_seconds);
  // Liveness watchdog: detection only — a wedged parallel region records a
  // kWedged audit event and metrics; enforcement stays with the deadline.
  ScopedWatchdog watchdog_guard(robust.watchdog_seconds);

  const bool durable =
      !dur.checkpoint_path.empty() || !dur.restore_path.empty();
  const std::uint64_t fingerprint =
      durable ? scf_fingerprint(mol, basis, options, be->name(), comm.size())
              : 0;

  // Every loop-carried datum of the run (robust/checkpoint.hpp).  The loop
  // reads and writes it directly; a checkpoint is this struct serialized.
  // The governor owns its own latches (TF32 step, FP64 latch, exact-final
  // polish) and they join the state at each capture.
  ScfState st;
  bool aborted = false;
  bool cancelled_stop = false;

  if (!dur.restore_path.empty()) {
    // Throws InputError (kCheckpointCorrupt / kCheckpointMismatch) on a bad
    // or foreign file — a restore never silently restarts from scratch.
    st = load_checkpoint(dur.restore_path, fingerprint);
    validate_restored_state(st, dur.restore_path, basis.nbf(), x.cols(),
                            nocc);
    governor.restore(GovernorState{st.governor_ladder_stage, st.fp64_latched,
                                   st.force_exact});
    MAKO_METRIC_COUNT("scf.restores", 1);
    log_info("run_scf: restored checkpoint '%s' at iteration %d (E=%.10f)",
             dur.restore_path.c_str(), st.next_iteration, st.last_energy);
  } else {
    // Core-Hamiltonian initial guess.
    MatrixD f0 = matmul(matmul(x, Trans::kYes, hcore, Trans::kNo, be), x, be);
    EigenResult es = eigh(f0);
    st.coefficients = matmul(x, es.eigenvectors, be);
    st.orbital_energies = es.eigenvalues;
    st.density = build_density(st.coefficients, nocc);
    if (comm.size() > 1) {
      // Every rank iterates from rank 0's guess.  With in-process ranks the
      // canonical buffer IS the payload, so a successful broadcast leaves it
      // unchanged while exercising verified delivery and charging the
      // modeled time; an exhausted retry budget means the ranks never agreed
      // on a starting density, which is unrecoverable for this run.
      result.comm_seconds += comm.broadcast(st.density, 0);
      const Status bst = comm.last_status();
      if (!bst.is_ok()) {
        result.status = bst;
        st.recovery_log.push_back(
            {0, bst.kind(), RecoveryAction::kAbort, bst.message()});
        log_error("run_scf: initial-guess broadcast failed: %s",
                  bst.message().c_str());
        aborted = true;
      }
    }
  }
  st.fingerprint = fingerprint;
  st.e_nuclear = mol.nuclear_repulsion();
  const int start_iter = st.next_iteration;
  result.resumed_from = start_iter;

  // Checkpoint capture: a copy of the state at the end of each completed
  // iteration.  The latest copy is written periodically and — whatever the
  // exit path — once more at the end, so a kill or budget stop always
  // leaves a resumable file describing the last completed iteration.
  ScfState last_ckpt;
  bool ckpt_unsaved = false;
  auto write_ckpt = [&] {
    const Status wst = save_checkpoint(dur.checkpoint_path, last_ckpt);
    if (wst.is_ok()) {
      ckpt_unsaved = false;
      MAKO_METRIC_COUNT("scf.checkpoints_written", 1);
    } else {
      // Never take down a healthy run over a failed checkpoint write.
      log_warn("run_scf: %s", wst.message().c_str());
      MAKO_METRIC_COUNT("scf.checkpoint_write_failures", 1);
    }
  };

  for (int iter = start_iter; iter < niter && !st.converged && !aborted;
       ++iter) {
    if (cancel.cancelled()) {
      cancelled_stop = true;
      break;
    }
    Timer iter_timer;
    ScfIterationRecord record;
    obs::TraceSpan iter_span(obs::TraceCat::kScf, "scf.iteration");
    if (iter_span.active()) {
      char args[32];
      std::snprintf(args, sizeof args, "\"iter\":%d", iter);
      iter_span.set_args(args);
    }
    MAKO_METRIC_COUNT("scf.iterations", 1);

    // Precision policy of the most recent Fock-build attempt; reported in
    // the per-iteration telemetry record.
    IterationPolicy policy;
    FockStats fs;

    // Appends the observability record mirroring `record`; called at every
    // iteration_log push site (normal and abort paths).
    auto append_telemetry = [&] {
      obs::IterationTelemetry t;
      t.iteration = iter;
      t.energy = record.energy;
      t.error = record.error;
      t.seconds = record.seconds;
      t.precision = policy.allow_quantized ? to_string(policy.quant_precision)
                                           : "fp64";
      t.reason = to_string(policy.reason);
      t.quantized_allowed = policy.allow_quantized;
      t.fp64_threshold = policy.fp64_threshold;
      t.prune_threshold = policy.prune_threshold;
      t.quartets_fp64 = fs.quartets_fp64;
      t.quartets_quantized = fs.quartets_quantized;
      t.quartets_pruned = fs.quartets_pruned;
      t.quartets_fp64_high_l = fs.quartets_fp64_high_l;
      t.eri_seconds = fs.eri_seconds;
      t.digest_seconds = fs.digest_seconds;
      t.route_seconds = fs.route_seconds;
      t.ladder_rung = st.ladder_rung;
      t.retries = record.retries;
      t.domain_faults = record.domain_faults;
      t.comm_retries = fs.comm_retries;
      t.comm_allreduce_s = fs.comm_seconds;
      t.comm_bytes = fs.comm_bytes;
      result.telemetry.push_back(t);
      MAKO_METRIC_OBSERVE("scf.iteration_s", record.seconds);
    };

    // Applies every ladder rung up to `target`, recording each activation.
    auto escalate = [&](FaultKind fault, int target,
                        const std::string& detail) {
      if (!robust.recovery) return;
      // Health-sentinel feedback to the precision authority: with the TF32
      // ladder active, divergence/oscillation advances the format step early
      // (noisy kernels are the first suspect); otherwise a no-op.
      governor.observe_fault(fault);
      target = std::min(target, 5);
      while (st.ladder_rung < target) {
        ++st.ladder_rung;
        RecoveryAction action = RecoveryAction::kNone;
        switch (st.ladder_rung) {
          case 1:
            st.diis_focks.clear();
            st.diis_errors.clear();
            action = RecoveryAction::kDiisReset;
            break;
          case 2:
            st.damping = true;
            action = RecoveryAction::kDamping;
            break;
          case 3:
            // Rung 3 requests FP64 through the governor — the SCF loop never
            // mutates precision state directly.
            governor.latch_fp64();
            action = RecoveryAction::kPrecisionEscalation;
            break;
          case 4:
            st.direct_diag = true;
            action = RecoveryAction::kDiagonalizerFallback;
            break;
          case 5:
            st.full_rebuild = true;
            action = RecoveryAction::kFockRebuild;
            break;
          default:
            break;
        }
        record.recovery_mask |= recovery_bit(action);
        st.recovery_log.push_back({iter, fault, action, detail});
        log_warn("scf iter %d: recovery rung %d (%s) after %s fault", iter,
                 st.ladder_rung, to_string(action), to_string(fault));
      }
    };

    // --- Fock build, with in-iteration retry on hard numeric faults -------
    MatrixD j, k;
    bool force_full_this_iter = st.full_rebuild;
    bool built_ok = false;
    for (int attempt = 0; attempt <= robust.max_retries_per_iteration;
         ++attempt) {
      // Precision plan for this attempt.  The governor folds in everything
      // that used to be scattered: the convergence-aware schedule, the
      // capability gate, the rung-3 FP64 latch, and the exact-final polish.
      policy =
          governor.plan_for_iteration(iter, iter == 0 ? 1.0 : st.last_error);

      const std::uint64_t domain_before = domain_fault_count();
      const bool do_incremental =
          options.incremental_fock && iter > 0 && !governor.exact_final() &&
          !force_full_this_iter &&
          (iter % std::max(options.incremental_rebuild_period, 1) != 0);
      if (do_incremental) {
        // Two-electron response of the density change only.
        MatrixD delta = st.density;
        delta -= st.d_prev;
        MatrixD dj, dk;
        fs = fock_builder.build_jk(delta, policy, dj, dk);
        if (MAKO_FAULT_POINT("scf.incremental_drift")) {
          // Symmetric bias on the delta contribution: models accumulated
          // incremental error that only full rebuilds (rung 5) clear.
          const FaultSpec spec =
              exec.faults().armed_spec("scf.incremental_drift");
          dj(0, 0) += spec.magnitude;
        }
        j = st.j_prev;
        j += dj;
        k = st.k_prev;
        k += dk;
      } else {
        fs = fock_builder.build_jk(st.density, policy, j, k);
      }
      record.domain_faults +=
          static_cast<std::int64_t>(domain_fault_count() - domain_before);

      // Cancellation trips leave J/K partial.  Bail BEFORE the audits: a
      // half-built Fock legitimately fails the symmetry sentinel, and letting
      // that read as a numerical fault would spuriously escalate the ladder
      // on an otherwise healthy run.
      if (fs.cancelled || cancel.cancelled()) {
        cancelled_stop = true;
        break;
      }

      // Collective failure first: an exhausted allreduce retry budget leaves
      // J/K unusable in a way no sentinel can detect — a partial J is still
      // symmetric and finite — so comm health routes into the same
      // hard-fault retry path as the numeric audits.
      Status audit = fs.comm_status;
      if (audit.is_ok() && robust.sentinels) {
        audit = audit_finite(j, "J");
        if (audit.is_ok()) audit = audit_finite(k, "K");
        if (audit.is_ok()) audit = audit_symmetry(j, "J", robust.symmetry_tol);
        if (audit.is_ok()) audit = audit_symmetry(k, "K", robust.symmetry_tol);
      }
      if (audit.is_ok()) {
        built_ok = true;
        break;
      }
      record.fault_mask |= fault_bit(audit.kind());
      log_warn("scf iter %d: %s", iter, audit.message().c_str());
      if (!robust.recovery || attempt == robust.max_retries_per_iteration) {
        result.status = audit;
        break;
      }
      // Hard numeric fault: jump to the precision-escalation rung (or the
      // next rung up if already there) and rebuild within this iteration.
      escalate(audit.kind(), std::max(3, st.ladder_rung + 1), audit.message());
      force_full_this_iter = true;
      ++record.retries;
    }
    if (cancelled_stop) break;  // discard the partial iteration
    if (!built_ok) {
      record.recovery_mask |= recovery_bit(RecoveryAction::kAbort);
      st.recovery_log.push_back({iter, result.status.kind(),
                                 RecoveryAction::kAbort,
                                 result.status.message()});
      log_error("scf iter %d: unrecoverable fault, aborting: %s", iter,
                result.status.message().c_str());
      record.seconds = iter_timer.seconds();
      result.iteration_log.push_back(record);
      append_telemetry();
      result.iterations = iter + 1 - start_iter;
      aborted = true;
      break;
    }
    st.d_prev = st.density;
    st.j_prev = j;
    st.k_prev = k;
    record.quartets_fp64 = fs.quartets_fp64;
    record.quartets_quantized = fs.quartets_quantized;
    record.quartets_pruned = fs.quartets_pruned;
    result.comm_seconds += fs.comm_seconds;
    result.comm_bytes += fs.comm_bytes;
    result.comm_retries += fs.comm_retries;

    XcResult xres;
    if (grid) {
      MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "scf.xc");
      xres = integrate_xc(basis, *grid, xc, st.density, be, &cancel);
      MAKO_METRIC_COUNT("scf.xc_builds", 1);
      if (xres.cancelled) {
        cancelled_stop = true;  // partial quadrature; discard the iteration
        break;
      }
    }

    // F = H + J - (cx/2) K + Vxc.
    MatrixD fock = hcore;
    fock += j;
    if (cx != 0.0) {
      MatrixD kscaled = k;
      kscaled *= -0.5 * cx;
      fock += kscaled;
    }
    if (grid) fock += xres.vxc;

    // Energy decomposition.  Locals until the iteration commits: a
    // cancellation between here and the commit point must return a result
    // whose energy terms all describe the same (previous) iteration.
    const double e_one = trace_product(st.density, hcore);
    const double e_coul = 0.5 * trace_product(st.density, j);
    const double e_xx = -0.25 * cx * trace_product(st.density, k);
    const double e_elec = e_one + e_coul + e_xx + xres.energy;
    const double energy = e_elec + st.e_nuclear;

    if (robust.sentinels && !std::isfinite(energy)) {
      record.fault_mask |= fault_bit(FaultKind::kNonFinite);
      result.status = Status::fault(FaultKind::kNonFinite,
                                    "run_scf: total energy is non-finite");
      record.recovery_mask |= recovery_bit(RecoveryAction::kAbort);
      st.recovery_log.push_back({iter, FaultKind::kNonFinite,
                                 RecoveryAction::kAbort,
                                 result.status.message()});
      record.seconds = iter_timer.seconds();
      result.iteration_log.push_back(record);
      append_telemetry();
      result.iterations = iter + 1 - start_iter;
      aborted = true;
      break;
    }

    // DIIS extrapolation.
    MatrixD f_use = fock;
    if (options.use_diis) {
      MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "scf.diis");
      const MatrixD err = diis_error_matrix(fock, st.density, s, x, be);
      f_use = diis_extrapolate(st.diis_focks, st.diis_errors, fock, err);
      st.last_error = diis_error_norm(err);
    } else {
      st.last_error = std::fabs(energy - st.last_energy);
    }

    // Diagonalize in the orthonormal basis.
    MatrixD f_ortho =
        matmul(matmul(x, Trans::kYes, f_use, Trans::kNo, be), x, be);
    // Rung-2 level shift: F_ortho += shift * (I - Y_occ Y_occ^T) raises the
    // virtual block, suppressing occupied/virtual mixing while the run is
    // still far from converged.  Tapers off near convergence so final
    // orbital energies are unshifted.
    if (st.damping && st.prev_y_occ.rows() == f_ortho.rows() &&
        st.last_error > 10.0 * options.diis_convergence &&
        robust.level_shift > 0.0) {
      MatrixD p_occ =
          matmul(st.prev_y_occ, Trans::kNo, st.prev_y_occ, Trans::kYes, be);
      p_occ *= robust.level_shift;
      for (std::size_t i = 0; i < f_ortho.rows(); ++i) {
        f_ortho(i, i) += robust.level_shift;
      }
      f_ortho -= p_occ;
    }

    if (cancel.cancelled()) {
      cancelled_stop = true;  // abandon before the (serial) diagonalization
      break;
    }
    obs::TraceSpan diag_span(obs::TraceCat::kScf, "scf.diagonalize");
    Timer diag_timer;
    EigenResult es;
    bool used_subspace = false;
    if (options.diagonalizer == Diagonalizer::kSubspace &&
        !st.direct_diag) {
      // MatMul-aligned iterative path: only the occupied block (plus a
      // small buffer) is solved for.
      const std::size_t nev =
          std::min(f_ortho.rows(), nocc + std::min<std::size_t>(nocc, 6) + 2);
      std::size_t sub_iters = options.subspace_max_iter;
      if (MAKO_FAULT_POINT("linalg.subspace_stall")) {
        sub_iters = 1;  // starve the solver: models a stalled eigensolver
      }
      es = eigh_subspace(f_ortho, nev, sub_iters, options.subspace_tol);
      used_subspace = true;
    } else {
      es = eigh(f_ortho);
    }
    if (robust.sentinels) {
      Status dst = Status::ok();
      if (used_subspace && !es.converged) {
        dst = Status::fault(
            FaultKind::kSubspaceStall,
            "run_scf: subspace diagonalizer failed to converge within its "
            "iteration budget");
      } else {
        const std::size_t probe =
            std::min(nocc + 2, es.eigenvectors.cols());
        dst = audit_eigen(es, "Fock diagonalization", probe,
                          robust.ortho_tol);
      }
      if (!dst.is_ok()) {
        record.fault_mask |= fault_bit(dst.kind());
        log_warn("scf iter %d: %s", iter, dst.message().c_str());
        if (robust.recovery) {
          // Diagonalizer fault: fall back to the direct solver immediately.
          escalate(dst.kind(), std::max(4, st.ladder_rung + 1), dst.message());
          es = eigh(f_ortho);
          ++record.retries;
        }
      }
    }
    diag_span.end();
    MAKO_METRIC_OBSERVE("scf.diag_s", diag_timer.seconds());
    // Save the occupied ortho-basis block for the next level shift.
    if (es.eigenvectors.cols() >= nocc) {
      st.prev_y_occ.resize(es.eigenvectors.rows(), nocc, 0.0);
      for (std::size_t i = 0; i < es.eigenvectors.rows(); ++i) {
        for (std::size_t o = 0; o < nocc; ++o) {
          st.prev_y_occ(i, o) = es.eigenvectors(i, o);
        }
      }
    }

    st.coefficients = matmul(x, es.eigenvectors, be);
    st.orbital_energies = es.eigenvalues;
    MatrixD d_new = build_density(st.coefficients, nocc);
    if (st.damping) {
      // Rung-2 static damping: mix back a fraction of the previous density.
      const double a = robust.damping_factor;
      d_new *= (1.0 - a);
      MatrixD d_old = st.density;
      d_old *= a;
      d_new += d_old;
    }
    st.density = std::move(d_new);
    if (MAKO_FAULT_POINT("scf.density_perturb")) {
      // Symmetric, finite perturbation of the next-iteration density: the
      // soft sentinels (oscillation/stagnation) must catch this — no hard
      // audit will.
      const FaultSpec spec = exec.faults().armed_spec("scf.density_perturb");
      st.density(0, 0) *= (1.0 + spec.magnitude);
    }
    st.fock = std::move(fock);
    st.e_one_electron = e_one;
    st.e_coulomb = e_coul;
    st.e_exact_exchange = e_xx;
    st.e_xc = xres.energy;

    // Iteration boundary: ranks synchronize before the convergence test.
    // DIIS and diagonalization are replicated, so the barrier only charges
    // the modeled latency of an empty collective.
    if (comm.size() > 1) result.comm_seconds += comm.barrier();

    record.energy = energy;
    record.error = st.last_error;
    record.seconds = iter_timer.seconds();

    // --- Soft sentinels: divergence / oscillation / stagnation ------------
    if (robust.sentinels && options.fixed_iterations <= 0) {
      if (iter > 0 && energy > st.last_energy + robust.divergence_tol) {
        ++st.rise_streak;
      } else {
        st.rise_streak = 0;
      }
      st.err_hist.push_back(st.last_error);
      const std::size_t w =
          static_cast<std::size_t>(std::max(robust.stagnation_window, 1));
      if (iter >= st.cooldown_until &&
          st.rise_streak >= robust.divergence_window) {
        record.fault_mask |= fault_bit(FaultKind::kDivergence);
        char detail[128];
        std::snprintf(detail, sizeof detail,
                      "energy rose %d consecutive iterations (now %.10f)",
                      st.rise_streak, energy);
        escalate(FaultKind::kDivergence, st.ladder_rung + 1, detail);
        st.rise_streak = 0;
        st.cooldown_until = iter + robust.divergence_window + 1;
      } else if (iter >= st.cooldown_until && st.err_hist.size() > w) {
        const double err_then = st.err_hist[st.err_hist.size() - 1 - w];
        if (st.last_error > robust.stagnation_factor * err_then &&
            st.last_error > options.diis_convergence) {
          // Classify: oscillation if the error bounced within the window,
          // stagnation if it sat flat.
          int rises = 0;
          for (std::size_t i = st.err_hist.size() - w; i < st.err_hist.size();
               ++i) {
            if (st.err_hist[i] > st.err_hist[i - 1]) ++rises;
          }
          const FaultKind fk = (2 * rises >= static_cast<int>(w))
                                   ? FaultKind::kOscillation
                                   : FaultKind::kStagnation;
          record.fault_mask |= fault_bit(fk);
          char detail[128];
          std::snprintf(detail, sizeof detail,
                        "DIIS error %.3e made no progress over %zu "
                        "iterations (was %.3e)",
                        st.last_error, w, err_then);
          escalate(fk, st.ladder_rung + 1, detail);
          st.cooldown_until = iter + static_cast<int>(w);
        }
      }
    }

    result.iteration_log.push_back(record);
    append_telemetry();
    result.iterations = iter + 1 - start_iter;
    st.energy = energy;

    log_debug("scf iter %2d  E=%.10f  err=%.3e  (%lld fp64 / %lld quant / "
              "%lld pruned)",
              iter, energy, st.last_error,
              static_cast<long long>(record.quartets_fp64),
              static_cast<long long>(record.quartets_quantized),
              static_cast<long long>(record.quartets_pruned));

    if (options.fixed_iterations <= 0 && iter > 0 &&
        std::fabs(energy - st.last_energy) < options.energy_convergence &&
        st.last_error < options.diis_convergence) {
      if (record.quartets_quantized > 0 && !governor.exact_final()) {
        // Converged on quantized kernels: re-run the final iteration exact.
        governor.request_exact_final();
      } else {
        st.converged = true;
      }
    }
    st.last_energy = energy;

    // End-of-iteration capture: the copy describes a run that is ready to
    // start iteration iter+1 (or is finished).  Written to disk on the
    // configured cadence and on convergence; the post-loop final write
    // covers every other exit path.
    st.next_iteration = iter + 1;
    if (!dur.checkpoint_path.empty()) {
      const GovernorState& g = governor.state();
      st.governor_ladder_stage = g.ladder_stage;
      st.fp64_latched = g.fp64_latched;
      st.force_exact = g.exact_final;
      last_ckpt = st;
      ckpt_unsaved = true;
      const int every = std::max(dur.checkpoint_interval, 1);
      if (st.converged || (iter + 1) % every == 0) write_ckpt();
    }
  }

  // Final checkpoint: whatever the exit path (budget, signal, abort,
  // iteration cap), the last completed iteration is on disk before we return.
  if (ckpt_unsaved) write_ckpt();

  // The state is the run's answer: hand its result snapshot over.
  result.converged = st.converged;
  result.energy = st.energy;
  result.e_nuclear = st.e_nuclear;
  result.e_one_electron = st.e_one_electron;
  result.e_coulomb = st.e_coulomb;
  result.e_exact_exchange = st.e_exact_exchange;
  result.e_xc = st.e_xc;
  result.density = std::move(st.density);
  result.fock = std::move(st.fock);
  result.coefficients = std::move(st.coefficients);
  result.orbital_energies = std::move(st.orbital_energies);
  result.recovery_log = std::move(st.recovery_log);
  result.fp64_latched = governor.fp64_latched();
  result.diagonalizer_fallback = st.direct_diag;
  result.full_rebuild_latched = st.full_rebuild;

  // Terminal health classification — the CLI exit-code contract.  A cancel
  // that lands after the run already finished its work does not demote a
  // converged result.
  const bool stopped_early =
      cancelled_stop || (cancel.cancelled() && !result.converged && !aborted &&
                         result.iterations < niter);
  if (stopped_early) {
    const bool deadline = cancel.reason() == CancelReason::kDeadline;
    result.health =
        deadline ? Health::kDeadlineExceeded : Health::kCancelled;
    char msg[224];
    std::snprintf(
        msg, sizeof msg,
        "run_scf: stopped early (%s) after %d completed iterations, "
        "E=%.10f; %s",
        to_string(cancel.reason()), result.resumed_from + result.iterations,
        result.energy,
        dur.checkpoint_path.empty()
            ? "no checkpoint configured, restarting loses this progress"
            : "restore the checkpoint to continue bit-identically");
    result.status = Status::fault(
        deadline ? FaultKind::kDeadlineExceeded : FaultKind::kCancelled, msg);
    log_warn("%s", msg);
    if (deadline) {
      MAKO_METRIC_COUNT("scf.deadline_stops", 1);
    } else {
      MAKO_METRIC_COUNT("scf.cancel_stops", 1);
    }
  } else if (aborted) {
    result.health = Health::kFault;
  } else if (!result.converged && options.fixed_iterations <= 0) {
    result.health = Health::kNotConverged;
    if (result.status.is_ok()) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "run_scf: no convergence within %d iterations "
                    "(last error %.3e); see ScfResult::recovery_log for what "
                    "the resilience ladder attempted",
                    result.iterations, st.last_error);
      result.status = Status::fault(FaultKind::kStagnation, msg);
    }
  } else if (result.recovered()) {
    result.health = Health::kRecovered;
  }

  return result;
}

}  // namespace mako
