// The `mako` command-line program — the artifact interface of the paper
// (its appendix runs `build/bin/shark --mol sample/water60.xyz`).
//
// Usage:
//   mako --mol <file.xyz> [options]
//   mako --batch <manifest.json> [--jobs K] [--batch-out out.json]
//
// Options:
//   --mol <path>          XYZ geometry (Angstrom)            [required]
//   --batch <path>        JSON manifest of jobs; runs them concurrently in
//                         one process over one shared execution context
//                         (plan caches built once, reused across jobs)
//   --jobs <k>            jobs in flight for --batch           [2]
//   --batch-out <path>    write the per-job results + throughput stats JSON
//                         here (always also printed to stdout)
//   --basis <name>        sto-3g | 6-31g | def2-tzvp | def2-qzvp |
//                         cc-pvtz | cc-pvqz                  [sto-3g]
//   --xc <name>           hf | lda | blyp | b3lyp            [hf]
//   --engine <name>       mako | reference                   [mako]
//   --backend <name>      GEMM backend: reference | blocked |
//                         blocked+quantized (or any registered name;
//                         default: $MAKO_BACKEND, else blocked+quantized)
//   --ranks <n>           modeled rank count for rank-sharded SCF; power of
//                         two in [1, 16] (default: $MAKO_RANKS, else 1).
//                         Energies are bit-identical for every rank count.
//   --cluster <name>      comm cost-model topology: default | single-node |
//                         ethernet                          [default]
//   --quantize            enable QuantMako scheduling
//   --precision <name>    precision-governance mode: adaptive | fp64 | fp32 |
//                         tf32 | fp16 (default: $MAKO_PRECISION, else
//                         adaptive).  fp64 forces exact FP64 everywhere
//                         (bit-identical across backends); the fixed formats
//                         pin the quantized storage format and imply
//                         --quantize
//   --precision-ladder    dynamic precision ladder: quantized work steps
//                         FP16 -> TF32 as convergence tightens (or on a
//                         soft fault), then FP64 for the exact polish
//   --iterations <n>      fixed SCF iteration count (benchmark mode)
//   --max-iterations <n>  SCF iteration cap                  [60]
//   --convergence <eps>   SCF energy threshold               [1e-7]
//   --grid <name>         coarse | standard | fine           [coarse]
//   --charge <q>          total molecular charge             [0]
//   --trace-out <path>    write a Chrome/Perfetto trace of the run
//   --trace-all           include the per-GEMM/per-quantize firehose spans
//   --metrics-json <path> write the global metrics registry as JSON
//   --telemetry           print the per-SCF-iteration telemetry table
//   --checkpoint <path>   write crash-consistent SCF checkpoints here
//   --checkpoint-interval <n>  iterations between checkpoint writes   [1]
//   --restore <path>      resume bit-identically from a checkpoint
//   --max-seconds <s>     wall-clock budget; graceful stop + checkpoint
//   --watchdog-seconds <s> liveness watchdog stall window (0 = off)
//   --verbose             debug logging
//   --help                this text
//
// Output mirrors the artifact: total wall-clock time, average SCF iteration
// time excluding the first, and the energy decomposition.
//
// Exit codes (scriptable; a scheduler must distinguish "resume me" from
// "give up" without parsing logs):
//   0  converged, no recovery needed (or fixed-iteration benchmark complete)
//   1  unexpected exception (bad input file, unknown basis, ...)
//   2  usage error
//   3  converged, but the resilience ladder had to intervene
//   4  iteration cap reached without convergence
//   5  stopped on an unrecoverable numerical fault
//   6  wall-clock budget (--max-seconds) expired; checkpoint resumable
//   7  cancelled by SIGINT/SIGTERM; checkpoint resumable
//
// In --batch mode each job carries its own health in the JSON document and
// the process exits with the MAXIMUM per-job exit code (0 iff every job
// converged cleanly), so "the whole batch is healthy" stays scriptable.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "core/batch.hpp"
#include "core/mako.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "robust/cancel.hpp"
#include "robust/status.hpp"
#include "util/log.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: mako --mol <file.xyz> [--basis NAME] [--xc NAME]\n"
      "       mako --batch <manifest.json> [--jobs K] [--batch-out PATH]\n"
      "            [--engine mako|reference] [--backend NAME] [--quantize]\n"
      "            [--precision adaptive|fp64|fp32|tf32|fp16]\n"
      "            [--precision-ladder]\n"
      "            [--ranks N] [--cluster NAME]\n"
      "            [--iterations N] [--max-iterations N] [--convergence EPS]\n"
      "            [--grid coarse|standard|fine] [--charge Q] [--verbose]\n"
      "            [--trace-out PATH] [--trace-all] [--metrics-json PATH]\n"
      "            [--telemetry]\n"
      "            [--checkpoint PATH] [--checkpoint-interval N]\n"
      "            [--restore PATH] [--max-seconds S] [--watchdog-seconds S]\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 recovered, 4 not converged,\n"
      "            5 fault, 6 deadline exceeded, 7 cancelled (signal)\n");
}

// SIGINT/SIGTERM request a cooperative stop on the process-wide token: the
// SCF finishes or abandons the current iteration, writes a final checkpoint,
// and returns best-so-far results with exit code 7.  Only lock-free atomic
// stores happen here — async-signal-safe.
extern "C" void handle_stop_signal(int) {
  mako::CancelToken::process().request(mako::CancelReason::kSignal);
}

}  // namespace

int main(int argc, char** argv) {
  std::string mol_path;
  std::string batch_path;
  std::string batch_out;
  int batch_jobs = 2;
  int charge = 0;
  std::string trace_path;
  std::string metrics_path;
  bool trace_all = false;
  bool print_telemetry = false;
  mako::MakoOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mako: %s expects a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mol") {
      mol_path = next("--mol");
    } else if (arg == "--batch") {
      batch_path = next("--batch");
    } else if (arg == "--jobs") {
      batch_jobs = std::atoi(next("--jobs").c_str());
      if (batch_jobs < 1) {
        std::fprintf(stderr, "mako: --jobs must be >= 1\n");
        return 2;
      }
    } else if (arg == "--batch-out") {
      batch_out = next("--batch-out");
    } else if (arg == "--basis") {
      options.basis = next("--basis");
    } else if (arg == "--xc") {
      options.functional = next("--xc");
    } else if (arg == "--engine") {
      const std::string engine = next("--engine");
      if (engine == "mako") {
        options.engine = mako::EriEngineKind::kMako;
      } else if (engine == "reference") {
        options.engine = mako::EriEngineKind::kReference;
      } else {
        std::fprintf(stderr, "mako: unknown engine '%s'\n", engine.c_str());
        return 2;
      }
    } else if (arg == "--backend") {
      options.backend = next("--backend");
    } else if (arg == "--ranks") {
      options.ranks = std::atoi(next("--ranks").c_str());
      if (options.ranks < 1) {
        std::fprintf(stderr, "mako: --ranks must be >= 1\n");
        return 2;
      }
    } else if (arg == "--cluster") {
      options.cluster = next("--cluster");
    } else if (arg == "--quantize") {
      options.quantization = true;
    } else if (arg == "--precision") {
      options.precision = next("--precision");
      try {
        // Validate at parse time so a typo is a usage error (exit 2), not a
        // mid-run exception.
        (void)mako::parse_precision_mode(options.precision);
      } catch (const mako::InputError& e) {
        std::fprintf(stderr, "mako: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--precision-ladder") {
      options.precision_ladder = true;
    } else if (arg == "--iterations") {
      options.fixed_iterations = std::atoi(next("--iterations").c_str());
    } else if (arg == "--max-iterations") {
      options.max_iterations = std::atoi(next("--max-iterations").c_str());
    } else if (arg == "--convergence") {
      options.convergence = std::atof(next("--convergence").c_str());
    } else if (arg == "--grid") {
      const std::string grid = next("--grid");
      if (grid == "coarse") {
        options.grid = mako::GridSpec::coarse();
      } else if (grid == "standard") {
        options.grid = mako::GridSpec::standard();
      } else if (grid == "fine") {
        options.grid = mako::GridSpec::fine();
      } else {
        std::fprintf(stderr, "mako: unknown grid '%s'\n", grid.c_str());
        return 2;
      }
    } else if (arg == "--charge") {
      charge = std::atoi(next("--charge").c_str());
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--trace-all") {
      trace_all = true;
    } else if (arg == "--metrics-json") {
      metrics_path = next("--metrics-json");
    } else if (arg == "--telemetry") {
      print_telemetry = true;
    } else if (arg == "--checkpoint") {
      options.durability.checkpoint_path = next("--checkpoint");
    } else if (arg == "--checkpoint-interval") {
      options.durability.checkpoint_interval =
          std::atoi(next("--checkpoint-interval").c_str());
    } else if (arg == "--restore") {
      options.durability.restore_path = next("--restore");
    } else if (arg == "--max-seconds") {
      options.durability.max_seconds = std::atof(next("--max-seconds").c_str());
    } else if (arg == "--watchdog-seconds") {
      options.watchdog_seconds =
          std::atof(next("--watchdog-seconds").c_str());
    } else if (arg == "--verbose") {
      mako::set_log_level(mako::LogLevel::kDebug);
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "mako: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  if (!batch_path.empty()) {
    if (!mol_path.empty()) {
      std::fprintf(stderr, "mako: --mol and --batch are mutually exclusive\n");
      return 2;
    }
    // Same graceful-stop path as solo mode: the signal trips the process
    // token, which every job token chains under, so ^C cancels the batch.
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    try {
      const std::vector<mako::BatchJobSpec> jobs =
          mako::BatchScheduler::load_manifest(batch_path);
      mako::BatchOptions batch_options;
      batch_options.concurrency = batch_jobs;
      batch_options.backend = options.backend;
      batch_options.ranks = options.ranks;
      batch_options.cluster = options.cluster;
      std::printf("Mako — batch mode: %zu jobs from %s, %d in flight\n",
                  jobs.size(), batch_path.c_str(), batch_jobs);
      mako::BatchScheduler scheduler(batch_options);
      const std::vector<mako::BatchJobResult> results = scheduler.run(jobs);

      const std::string json =
          mako::batch_results_json(results, scheduler.stats());
      std::fputs(json.c_str(), stdout);
      if (!batch_out.empty()) {
        std::FILE* f = std::fopen(batch_out.c_str(), "w");
        if (f == nullptr) {
          std::fprintf(stderr, "mako: failed to write batch results to '%s'\n",
                       batch_out.c_str());
          return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
      int worst = 0;
      for (const mako::BatchJobResult& r : results) {
        if (r.exit_code > worst) worst = r.exit_code;
      }
      return worst;
    } catch (const mako::InputError& e) {
      std::fprintf(stderr, "mako: %s\n", e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "mako: error: %s\n", e.what());
      return 1;
    }
  }

  if (mol_path.empty()) {
    std::fprintf(stderr, "mako: --mol or --batch is required\n");
    print_usage();
    return 2;
  }

  try {
    mako::Molecule mol = mako::Molecule::from_xyz_file(mol_path);
    mol.set_charge(charge);
    std::printf("Mako — matrix-aligned quantum chemistry\n");
    std::printf("molecule: %s (%zu atoms, %d electrons, charge %+d)\n",
                mol_path.c_str(), mol.size(), mol.num_electrons(), charge);
    std::printf("method:   %s/%s, engine=%s%s\n\n",
                options.functional.c_str(), options.basis.c_str(),
                options.engine == mako::EriEngineKind::kMako ? "mako"
                                                             : "reference",
                options.quantization ? " +quantize" : "");

    const bool tracing = !trace_path.empty();
    if (tracing) {
      if (!mako::obs::compiled_in()) {
        std::fprintf(stderr,
                     "mako: --trace-out ignored: instrumentation compiled out "
                     "(rebuild with -DMAKO_OBSERVABILITY=ON)\n");
      }
      mako::obs::Tracer::instance().start(trace_all
                                              ? mako::obs::Tracer::kAllMask
                                              : mako::obs::Tracer::kDefaultMask);
    }

    // Graceful-stop signals (installed after parsing so a bad command line
    // still dies immediately on ^C).
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    mako::MakoEngine engine(options);
    const mako::MakoReport report = engine.compute_energy(mol);
    std::cout << report.summary();

    if (tracing) {
      mako::obs::Tracer& tracer = mako::obs::Tracer::instance();
      tracer.stop();
      if (tracer.write_json(trace_path)) {
        std::printf("\ntrace:    %s (%zu events; load in ui.perfetto.dev)\n",
                    trace_path.c_str(), tracer.event_count());
      } else {
        std::fprintf(stderr, "mako: failed to write trace to '%s'\n",
                     trace_path.c_str());
      }
    }
    if (!metrics_path.empty()) {
      const std::string json = mako::obs::MetricsRegistry::global().to_json();
      std::FILE* f = std::fopen(metrics_path.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("metrics:  %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "mako: failed to write metrics to '%s'\n",
                     metrics_path.c_str());
      }
    }
    if (print_telemetry) {
      std::printf("\nper-iteration telemetry:\n%s",
                  mako::obs::telemetry_table(report.scf.telemetry).c_str());
    }
    if (!report.scf.status.is_ok()) {
      std::fprintf(stderr, "mako: %s\n", report.scf.status.message().c_str());
    }
    // Health -> exit code contract (see header comment and robust/status.hpp).
    return mako::exit_code_for(report.scf.health);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mako: error: %s\n", e.what());
    return 1;
  }
}
