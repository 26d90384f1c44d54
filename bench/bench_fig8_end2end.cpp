// [Figure 8] End-to-end SCF iteration time vs system size.
//
// Polyglycine chains (linear) and water clusters (globular) of increasing
// size at def2-TZVP and def2-QZVP structural level, comparing Mako against
// the per-quartet baseline (GPU4PySCF role, bench/reference_fock.hpp).
// Metric: average SCF iteration time excluding the first iteration, exactly
// as the paper measures.  The baseline is not a separate SCF run: its
// iteration is the measured Mako iteration with the Mako J/K wall time
// replaced by the baseline's J/K wall time, both timed on the Mako run's
// final density under its final precision plan (the rest of an iteration —
// XC, DIIS, diagonalization — is the same code in both roles).  The
// expected shape: Mako faster everywhere, with the margin widening on the
// higher-angular-momentum basis.
//
// Two ratios are printed.  `speedup` compares iterations with Mako's J/K on
// the process pool against the serial baseline, so it folds in the pool's
// thread parallelism; `1T J/K` compares the two J/K builds on one thread
// each, which is the counterpart of the paper's per-GPU ratio.
//
// Usage: bench_fig8_end2end [max_size] [--json=PATH]
// `--json=PATH` additionally writes the records as a JSON document (consumed
// by bench/run_benchmarks.sh to produce BENCH_fig8.json).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "obs/metrics.hpp"
#include "reference_fock.hpp"
#include "scf/scf.hpp"

namespace {
using namespace mako;

/// Per-stage breakdown of one Mako run, pulled from the global metrics
/// registry (zeros when the instrumentation is compiled out).
struct StageBreakdown {
  double plan_build_s = 0.0;
  double route_s = 0.0;
  double eri_s = 0.0;
  double digest_s = 0.0;
  double diag_s = 0.0;
  long long gemm_calls = 0;
  long long screen_visited = 0;
  long long screen_pruned_early = 0;
  // Per-precision quartet routing totals over the run (from the governor's
  // plans as applied by the Fock routing pass).
  long long quartets_fp64 = 0;
  long long quartets_quantized = 0;
  long long quartets_pruned = 0;
  long long quartets_fp64_high_l = 0;
};

/// One governor decision as the run's telemetry reports it.
struct GovernorDecision {
  int iteration = 0;
  std::string reason;
  std::string precision;
  bool quantized = false;
  long long quartets_fp64 = 0;
  long long quartets_quantized = 0;
  long long quartets_pruned = 0;
};

struct Record {
  std::string system;
  std::string basis;
  std::size_t atoms = 0;
  std::size_t nbf = 0;
  double t_mako = 0.0;
  BaselineIteration baseline;  ///< the GPU4PySCF-role iteration
  double t_mako_quant = 0.0;
  StageBreakdown mako_stages;
  StageBreakdown quant_stages;
  /// Per-iteration precision decisions of the quantized Mako run.
  std::vector<GovernorDecision> governor;
};

StageBreakdown collect_stages() {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  StageBreakdown s;
  if (const obs::Histogram* h = reg.find_histogram("fock.plan_build_s"))
    s.plan_build_s = h->sum();
  if (const obs::Histogram* h = reg.find_histogram("fock.route_s"))
    s.route_s = h->sum();
  if (const obs::Histogram* h = reg.find_histogram("fock.eri_s"))
    s.eri_s = h->sum();
  if (const obs::Histogram* h = reg.find_histogram("fock.digest_s"))
    s.digest_s = h->sum();
  if (const obs::Histogram* h = reg.find_histogram("scf.diag_s"))
    s.diag_s = h->sum();
  if (const obs::Counter* c = reg.find_counter("gemm.calls"))
    s.gemm_calls = static_cast<long long>(c->value());
  if (const obs::Counter* c = reg.find_counter("fock.screen_visited"))
    s.screen_visited = static_cast<long long>(c->value());
  if (const obs::Counter* c = reg.find_counter("fock.screen_pruned_early"))
    s.screen_pruned_early = static_cast<long long>(c->value());
  return s;
}

/// Average iteration seconds of a Mako run; with `baseline` non-null, also
/// the baseline iteration on the same run (see the header comment).
double avg_iteration_seconds(const Molecule& mol, const std::string& basis,
                             int iterations, bool quantize,
                             StageBreakdown* stages,
                             std::vector<GovernorDecision>* decisions,
                             BaselineIteration* baseline) {
  const BasisSet bs(mol, basis);
  ScfOptions options;
  options.fixed_iterations = iterations;
  options.enable_quantization = quantize;
  // Zero the global registry so the collected stage metrics cover exactly
  // this run (in-place reset keeps cached instrument references valid).
  obs::MetricsRegistry::global().reset();
  const ScfResult r = run_scf(mol, bs, options);
  *stages = collect_stages();
  for (const obs::IterationTelemetry& t : r.telemetry) {
    stages->quartets_fp64 += t.quartets_fp64;
    stages->quartets_quantized += t.quartets_quantized;
    stages->quartets_pruned += t.quartets_pruned;
    stages->quartets_fp64_high_l += t.quartets_fp64_high_l;
    if (decisions != nullptr) {
      GovernorDecision d;
      d.iteration = t.iteration;
      d.reason = t.reason;
      d.precision = t.quantized_allowed ? t.precision : "fp64";
      d.quantized = t.quantized_allowed;
      d.quartets_fp64 = t.quartets_fp64;
      d.quartets_quantized = t.quartets_quantized;
      d.quartets_pruned = t.quartets_pruned;
      decisions->push_back(std::move(d));
    }
  }
  if (baseline != nullptr) *baseline = baseline_iteration(bs, options, r);
  return r.avg_iteration_seconds();
}

Record run_system(const char* name, const Molecule& mol,
                  const std::string& basis) {
  const BasisSet bs(mol, basis);
  Record rec;
  rec.system = name;
  rec.basis = basis;
  rec.atoms = mol.size();
  rec.nbf = bs.nbf();
  rec.t_mako = avg_iteration_seconds(mol, basis, 2, false, &rec.mako_stages,
                                     nullptr, &rec.baseline);
  rec.t_mako_quant = avg_iteration_seconds(mol, basis, 2, true,
                                           &rec.quant_stages, &rec.governor,
                                           nullptr);
  std::printf("%-14s %-10s %6zu %6zu %13.3f %13.3f %13.3f %8.2fx %8.2fx\n",
              name, basis.c_str(), rec.atoms, rec.nbf, rec.baseline.seconds,
              rec.t_mako, rec.t_mako_quant, rec.baseline.seconds / rec.t_mako,
              rec.baseline.same_thread_jk_speedup());
  return rec;
}

void write_stages_json(std::FILE* f, const char* label,
                       const StageBreakdown& s, const char* trailer) {
  std::fprintf(f,
               "     \"%s\": {\"plan_build_s\": %.6f, \"route_s\": %.6f, "
               "\"eri_s\": %.6f, \"digest_s\": %.6f, "
               "\"diag_s\": %.6f, \"gemm_calls\": %lld, "
               "\"screen_visited\": %lld, \"screen_pruned_early\": %lld, "
               "\"quartets_fp64\": %lld, \"quartets_quantized\": %lld, "
               "\"quartets_pruned\": %lld, "
               "\"quartets_fp64_high_l\": %lld}%s\n",
               label, s.plan_build_s, s.route_s, s.eri_s, s.digest_s, s.diag_s,
               s.gemm_calls, s.screen_visited, s.screen_pruned_early,
               s.quartets_fp64, s.quartets_quantized, s.quartets_pruned,
               s.quartets_fp64_high_l, trailer);
}

void write_governor_json(std::FILE* f,
                         const std::vector<GovernorDecision>& decisions) {
  std::fprintf(f, "     \"governor\": [");
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const GovernorDecision& d = decisions[i];
    std::fprintf(f,
                 "%s\n      {\"iteration\": %d, \"reason\": \"%s\", "
                 "\"precision\": \"%s\", \"quantized\": %s, "
                 "\"quartets_fp64\": %lld, \"quartets_quantized\": %lld, "
                 "\"quartets_pruned\": %lld}",
                 i == 0 ? "" : ",", d.iteration, d.reason.c_str(),
                 d.precision.c_str(), d.quantized ? "true" : "false",
                 d.quartets_fp64, d.quartets_quantized, d.quartets_pruned);
  }
  std::fprintf(f, decisions.empty() ? "]\n" : "\n     ]\n");
}

void write_json(const char* path, const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"figure\": \"fig8\",\n  \"metric\": "
                  "\"average SCF iteration seconds (excluding first)\",\n"
                  "  \"systems\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "    {\"system\": \"%s\", \"basis\": \"%s\", \"atoms\": %zu, "
        "\"nbf\": %zu, \"t_ref_s\": %.6f, \"t_mako_s\": %.6f, "
        "\"t_mako_quant_s\": %.6f, \"speedup\": %.4f, \"jk_mako_s\": %.6f, "
        "\"jk_mako_1t_s\": %.6f, \"jk_ref_s\": %.6f, "
        "\"jk_speedup_1t\": %.4f,\n     \"stages\": {\n",
        r.system.c_str(), r.basis.c_str(), r.atoms, r.nbf, r.baseline.seconds,
        r.t_mako, r.t_mako_quant, r.baseline.seconds / r.t_mako,
        r.baseline.mako_jk_s, r.baseline.mako_jk_serial_s,
        r.baseline.reference_jk_s, r.baseline.same_thread_jk_speedup());
    write_stages_json(f, "mako", r.mako_stages, ",");
    write_stages_json(f, "mako_quant", r.quant_stages, "");
    std::fprintf(f, "     },\n");
    write_governor_json(f, r.governor);
    std::fprintf(f, "    }%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Default sizes fit a single-core budget; pass a larger argument to sweep
  // bigger systems (cost grows as the fourth power of system size).
  int max_size = 0;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      max_size = std::atoi(argv[i]);
    }
  }
  const int max_water = max_size > 0 ? max_size : 2;
  const int max_gly = max_size > 0 ? max_size : 1;

  std::printf("[Figure 8] End-to-end average SCF iteration time "
              "(excluding the first iteration)\n");
  std::printf("%-14s %-10s %6s %6s %13s %13s %13s %9s %9s\n", "system",
              "basis", "atoms", "nbf", "t[ref] s", "t[mako] s", "t[mako+q] s",
              "speedup", "1T J/K");

  std::vector<Record> records;

  // Linear systems: polyglycine chains.
  for (int n = 1; n <= max_gly; ++n) {
    const Molecule gly = make_polyglycine(n);
    const std::string name = "(gly)_" + std::to_string(n);
    records.push_back(run_system(name.c_str(), gly, "def2-tzvp"));
  }

  // Globular systems: water clusters.
  for (int n = 1; n <= max_water; ++n) {
    const Molecule w = make_water_cluster(n, 7);
    const std::string name = "water_" + std::to_string(n);
    records.push_back(run_system(name.c_str(), w, "def2-tzvp"));
  }

  // Higher angular momentum: def2-QZVP on the smallest systems.
  records.push_back(run_system("water_1", make_water(), "def2-qzvp"));

  std::printf("\npaper shape: Mako leads throughout, and the margin grows "
              "from TZVP to QZVP as g-function GEMMs dominate.\n");

  if (json_path != nullptr) write_json(json_path, records);
  return 0;
}
