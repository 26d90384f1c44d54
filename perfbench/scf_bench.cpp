// SCF benchmark program: three workloads through the public run_scf path on a
// pinned thread pool, plus a traced pass that times one call into each
// layer's public functions.  See perfbench/README.md for the protocol.
//
//   perfbench_scf --workload NAME --seed N --seconds S --trace 0|1
//                 --sample DIR --references FILE [--trace-out FILE]
//                 [--git-sha SHA]
//   perfbench_scf --write-references --sample DIR      (regenerates FILE)
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1).  The line before it carries the run metadata.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "chem/molecule.hpp"
#include "core/execution_context.hpp"
#include "core/mako.hpp"
#include "integrals/one_electron.hpp"
#include "kernelmako/batched_eri.hpp"
#include "linalg/eigen.hpp"
#include "obs/metrics.hpp"
#include "scf/fock.hpp"
#include "scf/fock_plan.hpp"
#include "scf/grid.hpp"
#include "scf/scf.hpp"
#include "scf/xc.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace mako;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- helpers

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median wall time of `reps` calls of `fn`.
double median_time(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// CPUs this process may run on (what `nproc` prints; honours taskset).
std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t counter_value(const char* name) {
  const obs::Counter* c = obs::MetricsRegistry::global().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const MatrixD& a, const MatrixD& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const VectorD& a, const VectorD& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder of the traced pass.  Spans are recorded around
/// the benchmark's own calls into each layer (workload -> layer pass ->
/// call) and written as Chrome trace-event JSON when the pass ends; the
/// program's own tracer stays off.
class SpanRecorder {
 public:
  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, now_us(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  void write(const std::string& path, const std::string& meta_json) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << meta_json
        << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << num(s.start_us)
          << ",\"dur\":" << num(s.end_us - s.start_us) << ",\"args\":{\"id\":"
          << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a null recorder (untraced runs) makes it a no-op.
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, int parent)
      : rec_(rec), id_(rec ? rec->begin(std::move(name), parent) : -1) {}
  ~Span() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

// ------------------------------------------------------------- references

using References = std::map<std::string, double>;

References load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  References refs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    double energy = 0.0;
    if (!(fields >> key >> energy)) {
      throw std::runtime_error("bad reference line: " + line);
    }
    refs[key] = energy;
  }
  return refs;
}

double reference(const References& refs, const std::string& key) {
  const auto it = refs.find(key);
  if (it == refs.end()) throw std::runtime_error("no reference for " + key);
  return it->second;
}

// -------------------------------------------------------------- workloads

constexpr double kFp64Tolerance = 1e-8;   // Eh, FP64 workloads
constexpr double kQuantTolerance = 1e-3;  // Eh, paper Table 3 criterion
// The batch's geometries: (H2O)_n for n = 2, 3, 4 and these cluster seeds.
// The set is fixed so every run covers the same jobs (job times differ by
// geometry, so a seed-dependent set would read as run-to-run noise); the
// run seed orders them.
constexpr int kClusterSeedsPerSize = 3;
constexpr int kMinSetupSamples = 3;

std::string cluster_key(std::size_t n, int cluster_seed) {
  return "sto3g_water" + std::to_string(n) + "_seed" +
         std::to_string(cluster_seed);
}

MakoOptions hf_tzvp_options() {
  MakoOptions o;
  o.basis = "def2-tzvp";
  o.functional = "hf";
  o.precision = "adaptive";
  return o;
}

MakoOptions b3lyp_quant_options() {
  MakoOptions o;
  o.basis = "def2-tzvp";
  o.functional = "b3lyp";
  o.quantization = true;
  o.precision = "adaptive";
  o.grid = GridSpec::coarse();
  return o;
}

MakoOptions sto3g_options() {
  MakoOptions o;
  o.basis = "sto-3g";
  o.functional = "hf";
  o.precision = "adaptive";
  return o;
}

Molecule water_dimer(const Molecule& trimer) {
  Molecule dimer;
  for (std::size_t i = 0; i < 6; ++i) {
    const Atom& a = trimer.atoms()[i];
    dimer.add_atom(a.z, a.position[0], a.position[1], a.position[2]);
  }
  return dimer;
}

/// The execution environment of one run: the benchmark's own pool of
/// nproc-1 workers (the calling thread drains chunks too) and a fresh ERI
/// plan cache per context, so every run pays the plan builds a `mako`
/// invocation pays.
ExecutionContextOptions context_options(ThreadPool& pool, EriPlanCache& plans,
                                        bool quantization) {
  ExecutionContextOptions o;
  o.enable_quantization = quantization;
  o.pool = &pool;
  o.plans = &plans;
  o.ranks = 1;
  return o;
}

struct PinnedContext {
  PinnedContext(ThreadPool& pool, bool quantization)
      : ctx(context_options(pool, plans, quantization)) {}
  EriPlanCache plans;
  ExecutionContext ctx;
};

/// One SCF job: BasisSet construction (or pool lookup) through the
/// converged result.
struct Job {
  std::string label;
  ScfResult scf;
  double wall_s = 0.0;
  /// Job start to the end of the first iteration: the wall time minus the
  /// iterations after the first.
  double setup_s = 0.0;
};

Job run_job(std::string label, const Molecule& mol, const BasisSet* pooled,
            const std::string& basis_name, const ScfOptions& options,
            const ExecutionContext& ctx) {
  Job job;
  job.label = std::move(label);
  const auto t0 = Clock::now();
  std::unique_ptr<BasisSet> own;
  if (pooled == nullptr) own = std::make_unique<BasisSet>(mol, basis_name);
  const BasisSet& basis = pooled ? *pooled : *own;
  job.scf = run_scf(mol, basis, options, &ctx);
  job.wall_s = seconds_since(t0);
  double later = 0.0;
  for (std::size_t i = 1; i < job.scf.iteration_log.size(); ++i) {
    later += job.scf.iteration_log[i].seconds;
  }
  job.setup_s = job.wall_s - later;
  return job;
}

/// Tally of checked operations.  A failed check is printed to stderr and
/// counted; nothing is hidden.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
  }

  /// Every job must converge with Health::kOk and match its reference.
  bool job(const Job& j, double ref, double tolerance) {
    const double err = std::fabs(j.scf.energy - ref);
    char what[256];
    std::snprintf(what, sizeof what,
                  "%s: converged=%d health=%s E=%.12f ref=%.12f |dE|=%.3e "
                  "(tolerance %.1e)",
                  j.label.c_str(), j.scf.converged ? 1 : 0,
                  to_string(j.scf.health), j.scf.energy, ref, err, tolerance);
    return expect(j.scf.converged && j.scf.health == Health::kOk &&
               std::isfinite(j.scf.energy) && err <= tolerance,
           what);
  }
};

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

/// Shared state of one benchmark process.
struct Bench {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sample_dir;
  References refs;
  std::size_t nproc = available_cpus();
  ThreadPool pool{nproc > 1 ? nproc - 1 : 1};
  Checks checks;
  std::unique_ptr<SpanRecorder> spans;
  Metrics metrics;

  void put(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  SpanRecorder* rec() const { return spans.get(); }
};

/// Post-first iteration wall times of every job.
std::vector<double> later_iterations(std::span<const Job> jobs) {
  std::vector<double> t;
  for (const Job& j : jobs) {
    for (std::size_t i = 1; i < j.scf.iteration_log.size(); ++i) {
      t.push_back(j.scf.iteration_log[i].seconds);
    }
  }
  return t;
}

// ------------------------------------------------------- single-molecule

struct MoleculeWorkload {
  Molecule mol;
  MakoOptions options;
  double ref = 0.0;
  double tolerance = 0.0;
};

MoleculeWorkload molecule_workload(const Bench& b) {
  const Molecule trimer =
      Molecule::from_xyz_file(b.sample_dir + "/water3.xyz");
  MoleculeWorkload w;
  if (b.workload == "hf_water3_tzvp") {
    w.mol = trimer;
    w.options = hf_tzvp_options();
    w.ref = reference(b.refs, "hf_water3_tzvp");
    w.tolerance = kFp64Tolerance;
  } else {
    w.mol = water_dimer(trimer);
    w.options = b3lyp_quant_options();
    w.ref = reference(b.refs, "b3lyp_water2_tzvp_fp64");
    w.tolerance = kQuantTolerance;
  }
  return w;
}

/// The converged state the traced pass probes.
struct LayerInputs {
  const Molecule* mol = nullptr;
  const BasisSet* basis = nullptr;
  const Job* job = nullptr;
  const ExecutionContext* ctx = nullptr;  ///< the job's context (plan hit)
  ScfOptions options;
  double ref = 0.0;
  double plan_hit_ratio = 0.0;
  bool dft = false;
};

void traced_layers(Bench& b, const LayerInputs& in, int workload_span);

void run_molecule_workload(Bench& b) {
  const MoleculeWorkload w = molecule_workload(b);
  const ScfOptions opts = scf_options_from(w.options);
  Span top(b.rec(), b.workload, -1);

  // Closed loop, one client: whole jobs until the measuring window is used
  // up (at least one).  Each job runs on a fresh context.
  std::vector<Job> jobs;
  std::vector<std::unique_ptr<PinnedContext>> contexts;
  const auto t0 = Clock::now();
  do {
    contexts.push_back(
        std::make_unique<PinnedContext>(b.pool, w.options.quantization));
    Span s(b.rec(), "job", top.id());
    jobs.push_back(run_job(b.workload + "/job" + std::to_string(jobs.size()),
                           w.mol, nullptr, w.options.basis, opts,
                           contexts.back()->ctx));
    b.checks.job(jobs.back(), w.ref, w.tolerance);
  } while (seconds_since(t0) < b.seconds);
  const double loop_s = seconds_since(t0);

  std::vector<double> setups;
  for (const Job& j : jobs) setups.push_back(j.setup_s);
  if (!b.trace) {
    // Set-up probes: a fresh context, the basis, and exactly one iteration,
    // until there are enough set-up samples for a median.
    ScfOptions probe = opts;
    probe.fixed_iterations = 1;
    while (setups.size() < kMinSetupSamples) {
      PinnedContext pc(b.pool, w.options.quantization);
      const Job p = run_job(b.workload + "/setup-probe", w.mol, nullptr,
                            w.options.basis, probe, pc.ctx);
      b.checks.expect(
          p.scf.iteration_log.size() == 1 &&
              same_bits(p.scf.iteration_log[0].energy,
                        jobs[0].scf.iteration_log[0].energy),
          b.workload + ": set-up probe first iteration reproduces the job's");
      setups.push_back(p.setup_s);
    }
    std::vector<double> walls;
    for (const Job& j : jobs) walls.push_back(j.wall_s);
    b.put("iter_s", median(later_iterations(jobs)), "s");
    b.put("setup_s", median(setups), "s");
    b.put("scf_s", median(walls), "s");
    b.put("jobs_per_s", static_cast<double>(jobs.size()) / loop_s, "1/s");
    b.put("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const BasisSet basis(w.mol, w.options.basis);
  std::int64_t hits = 0, builds = 0;
  for (const auto& pc : contexts) {
    const FockPlanCache& cache = pc->ctx.components().get<FockPlanCache>();
    hits += cache.hits();
    builds += cache.builds();
  }
  LayerInputs in;
  in.mol = &w.mol;
  in.basis = &basis;
  in.job = &jobs.back();
  in.ctx = &contexts.back()->ctx;
  in.options = opts;
  in.ref = w.ref;
  in.plan_hit_ratio =
      static_cast<double>(hits) / static_cast<double>(hits + builds);
  in.dft = !opts.xc.is_hf_only();
  traced_layers(b, in, top.id());
}

// ------------------------------------------------------------------ batch

/// Keeps a seeded random sample of `take` entries of `v` (all if fewer).
template <typename T>
void seeded_sample(std::vector<T>& v, std::size_t take, Rng& rng) {
  std::shuffle(v.begin(), v.end(), rng.engine());
  v.resize(std::min(take, v.size()));
}

/// The batch's job list: blocks of three geometries, (H2O)_n for n = 2, 3, 4,
/// in an order drawn by a seeded shuffle of the cluster seeds per size.
std::vector<std::pair<std::size_t, int>> batch_geometries(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> order(3);
  for (auto& o : order) {
    for (int s = 1; s <= kClusterSeedsPerSize; ++s) o.push_back(s);
    seeded_sample(o, o.size(), rng);
  }
  std::vector<std::pair<std::size_t, int>> list;
  for (int k = 0; k < kClusterSeedsPerSize; ++k) {
    for (std::size_t n = 2; n <= 4; ++n) list.emplace_back(n, order[n - 2][k]);
  }
  return list;
}

void run_batch_workload(Bench& b) {
  const MakoOptions options = sto3g_options();
  const ScfOptions opts = scf_options_from(options);
  const auto geometries = batch_geometries(b.seed);
  Span top(b.rec(), b.workload, -1);

  // Every job runs on an ExecutionContext view of one parent context, each
  // geometry with one pooled BasisSet, as the batch scheduler shares them.
  PinnedContext parent(b.pool, false);
  std::vector<Job> jobs;
  std::size_t ok_jobs = 0;
  Molecule probe_mol;
  std::unique_ptr<BasisSet> probe_basis;
  Job probe_job;
  double probe_ref = 0.0;
  const auto t0 = Clock::now();
  std::size_t next = 0;
  do {
    // One block: three geometries (n = 2, 3, 4), each run twice in a row.
    for (int g = 0; g < 3; ++g, ++next) {
      const auto [n, cseed] = geometries[next % geometries.size()];
      const Molecule mol = make_water_cluster(n, static_cast<unsigned>(cseed));
      const double ref = reference(b.refs, cluster_key(n, cseed));
      std::unique_ptr<BasisSet> pooled;
      for (int rep = 0; rep < 2; ++rep) {
        Span s(b.rec(), "job", top.id());
        const auto tj = Clock::now();
        if (!pooled) pooled = std::make_unique<BasisSet>(mol, options.basis);
        const double basis_s = seconds_since(tj);
        CancelToken token;
        const ExecutionContext view(parent.ctx, token);
        Job j = run_job(cluster_key(n, cseed) + "/run" + std::to_string(rep),
                        mol, pooled.get(), options.basis, opts, view);
        j.wall_s += basis_s;
        j.setup_s += basis_s;
        if (b.checks.job(j, ref, kFp64Tolerance)) ++ok_jobs;
        if (rep == 1) {
          const Job& first = jobs.back();
          b.checks.expect(
              same_bits(j.scf.energy, first.scf.energy) &&
                  same_bits(j.scf.orbital_energies,
                            first.scf.orbital_energies) &&
                  same_bits(j.scf.density, first.scf.density),
              j.label + ": repeat (plan-cache hit) reproduces the first run "
                        "bit for bit");
        }
        jobs.push_back(std::move(j));
      }
      // The traced pass probes the first four-water geometry.
      if (next == 2 && b.trace) {
        probe_mol = mol;
        probe_basis = std::move(pooled);
        probe_job = jobs.back();
        probe_ref = ref;
      }
    }
  } while (seconds_since(t0) < b.seconds);
  const double loop_s = seconds_since(t0);

  const FockPlanCache& cache = parent.ctx.components().get<FockPlanCache>();
  const double hit_ratio =
      static_cast<double>(cache.hits()) /
      static_cast<double>(cache.hits() + cache.builds());
  if (!b.trace) {
    std::vector<double> walls, setups;
    for (const Job& j : jobs) {
      walls.push_back(j.wall_s);
      setups.push_back(j.setup_s);
    }
    b.put("iter_s", median(later_iterations(jobs)), "s");
    b.put("setup_s", median(setups), "s");
    b.put("scf_s", median(walls), "s");
    b.put("jobs_per_s", static_cast<double>(ok_jobs) / loop_s, "1/s");
    b.put("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("{\"batch\": {\"jobs\": %zu, \"geometries\": %zu, "
                "\"fock_plan_hit_ratio\": %s}}\n",
                jobs.size(), next, num(hit_ratio).c_str());
    return;
  }

  LayerInputs in;
  in.mol = &probe_mol;
  in.basis = probe_basis.get();
  in.job = &probe_job;
  in.ctx = &parent.ctx;
  in.options = opts;
  in.ref = probe_ref;
  in.plan_hit_ratio = hit_ratio;
  in.dft = false;
  traced_layers(b, in, top.id());
}

// ------------------------------------------------------------ traced pass

/// Kernel buckets by la+lb+lc+ld.  STO-3G tops out at 4, so the high bucket
/// starts at 3 to exist on every workload.
int kernel_bucket(const EriClassKey& key) { return key.ltot() <= 2 ? 0 : 1; }
constexpr const char* kBucketNames[2] = {"l0-2", "l3up"};
constexpr std::size_t kClassesPerBucket = 48;

/// Seeded sample of the basis' Schwarz-significant quartets: up to
/// kClassesPerBucket classes of each bucket, and up to `per_class`
/// quartets of each sampled class.
std::map<EriClassKey, std::vector<QuartetRef>> sample_quartets(
    const FockPlan& plan, double threshold, std::size_t per_class,
    std::uint64_t seed) {
  std::map<EriClassKey, std::vector<QuartetRef>> all;
  const auto& pairs = plan.pairs();
  for (std::size_t bi = 0; bi < pairs.size(); ++bi) {
    for (std::size_t ki = 0; ki <= bi; ++ki) {
      if (pairs[bi].q * pairs[ki].q < threshold) continue;
      const EriClassKey& key =
          plan.quartet_classes()[plan.class_slot(pairs[bi].klass,
                                                 pairs[ki].klass)];
      all[key].push_back(QuartetRef{pairs[bi].s1, pairs[bi].s2,
                                    pairs[ki].s1, pairs[ki].s2});
    }
  }
  Rng rng(seed);
  std::vector<EriClassKey> classes[2];
  for (const auto& [key, qs] : all) classes[kernel_bucket(key)].push_back(key);
  std::map<EriClassKey, std::vector<QuartetRef>> sample;
  for (auto& keys : classes) {
    seeded_sample(keys, kClassesPerBucket, rng);
    for (const EriClassKey& key : keys) {
      std::vector<QuartetRef>& qs = all[key];
      seeded_sample(qs, per_class, rng);
      sample[key] = std::move(qs);
    }
  }
  return sample;
}

/// Times BatchedEriEngine::compute_batch on one thread over the sample, at
/// `precision`, and reports us per quartet by total angular momentum bucket
/// plus the achieved GEMM rate.
void kernel_probe(Bench& b, const ExecutionContext& ctx,
                  const std::map<EriClassKey, std::vector<QuartetRef>>& sample,
                  Precision precision, std::size_t batch_size, int parent) {
  const std::string prec = precision == Precision::kFP64 ? "fp64" : "fp16";
  Span pass(b.rec(), "BatchedEriEngine::compute_batch " + prec, parent);
  KernelConfig config;
  config.gemm.precision = precision;
  const BatchedEriEngine engine(config, &ctx.backend(), &ctx.plans());
  EriScratch scratch;
  std::vector<std::vector<double>> out;
  constexpr int kReps = 3;
  double bucket_s[2] = {0.0, 0.0};
  double bucket_q[2] = {0.0, 0.0};
  double flops = 0.0, flop_s = 0.0;
  for (const auto& [key, qs] : sample) {
    const EriClassPlan& cplan = ctx.plans().get(key);
    double class_s = 0.0, class_flops = 0.0;
    for (std::size_t start = 0; start < qs.size(); start += batch_size) {
      const std::size_t count = std::min(batch_size, qs.size() - start);
      const std::span<const QuartetRef> batch(qs.data() + start, count);
      engine.compute_batch(cplan, batch, out, scratch, false);  // warm
      std::vector<double> t;
      BatchStats st;
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        st = engine.compute_batch(cplan, batch, out, scratch, false);
        t.push_back(seconds_since(t0));
      }
      class_s += median(t);
      class_flops += st.gemm_flops;
    }
    const int bucket = kernel_bucket(key);
    bucket_s[bucket] += class_s;
    bucket_q[bucket] += static_cast<double>(qs.size());
    flops += class_flops;
    flop_s += class_s;
  }
  for (int i = 0; i < 2; ++i) {
    if (bucket_q[i] == 0.0) {
      throw std::runtime_error("kernel sample has no quartets in bucket " +
                               std::string(kBucketNames[i]));
    }
    b.put("kernelmako.us_per_quartet." + prec + "." + kBucketNames[i],
          1e6 * bucket_s[i] / bucket_q[i], "us");
  }
  b.put("kernelmako.gemm_gflops." + prec, 1e-9 * flops / flop_s, "GFLOP/s");
}

void traced_layers(Bench& b, const LayerInputs& in, int workload_span) {
  SpanRecorder* rec = b.rec();
  const Molecule& mol = *in.mol;
  const BasisSet& basis = *in.basis;
  const ScfResult& scf = in.job->scf;
  const ExecutionContext& ctx = *in.ctx;
  const std::string& basis_name = basis.name();

  {
    Span pass(rec, "basis", workload_span);
    Span call(rec, "BasisSet(mol, name) x5", pass.id());
    b.put("basis.build_s",
          median_time(5, [&] { const BasisSet tmp(mol, basis_name); }), "s");
  }
  {
    Span pass(rec, "integrals", workload_span);
    Span call(rec, "overlap_matrix + core_hamiltonian x5", pass.id());
    b.put("integrals.core_h_s", median_time(5, [&] {
            const MatrixD s = overlap_matrix(basis);
            const MatrixD h = core_hamiltonian(basis, mol);
          }),
          "s");
  }
  {
    Span pass(rec, "scf/fock_plan", workload_span);
    Span call(rec, "FockBuilder on a fresh context x3 (plan miss)", pass.id());
    b.put("fock_plan.build_s", median_time(3, [&] {
            PinnedContext fresh(b.pool, false);
            const FockBuilder fb(basis, in.options.fock, &fresh.ctx);
          }),
          "s");
    b.put("fock_plan.hit_ratio", in.plan_hit_ratio, "ratio");
  }

  // The precision plan of the job's final iteration, rebuilt through the
  // governor's public API.
  IterationPolicy policy;
  {
    Span pass(rec, "precision", workload_span);
    Span call(rec, "PrecisionGovernor::plan_for_iteration", pass.id());
    PrecisionGovernor gov = ctx.make_governor(
        in.options.precision, in.options.enable_quantization,
        in.options.prune_threshold);
    const obs::IterationTelemetry& final_t = scf.telemetry.back();
    if (!final_t.quantized_allowed && gov.quantized_execution()) {
      gov.request_exact_final();
    }
    const int last = static_cast<int>(scf.iteration_log.size()) - 1;
    policy = gov.plan_for_iteration(
        last, scf.iteration_log.size() > 1 ? scf.iteration_log[last - 1].error
                                           : 1.0);
    b.checks.expect(
        policy.allow_quantized == final_t.quantized_allowed &&
            policy.prune_threshold == final_t.prune_threshold,
        "final-iteration precision plan matches the job's telemetry");
    double quantized = 0.0, computed = 0.0;
    for (const auto& t : scf.telemetry) {
      quantized += static_cast<double>(t.quartets_quantized);
      computed += static_cast<double>(t.quartets_quantized + t.quartets_fp64);
    }
    b.put("precision.quantized_share", quantized / computed, "ratio");
    b.put("precision.energy_err_uha", 1e6 * std::fabs(scf.energy - in.ref),
          "uEh");
  }

  // Fock build on the pinned pool: median of three calls, with the kernel
  // and GEMM registry deltas of one call.
  MatrixD j_pool, k_pool;
  double pooled_s = 0.0, pooled_cpu = 0.0;
  {
    Span pass(rec, "scf/fock", workload_span);
    const FockBuilder fb(basis, in.options.fock, &ctx);
    FockStats fs;
    std::vector<double> wall, cpu;
    std::int64_t dq = 0, db = 0, dg = 0;
    for (int r = 0; r < 3; ++r) {
      Span call(rec, "FockBuilder::build_jk", pass.id());
      const std::int64_t q0 = counter_value("kernel.quartets");
      const std::int64_t b0 = counter_value("kernel.batches");
      const std::int64_t g0 = counter_value("gemm.calls");
      const double c0 = process_cpu_seconds();
      const auto t0 = Clock::now();
      fs = fb.build_jk(scf.density, policy, j_pool, k_pool);
      wall.push_back(seconds_since(t0));
      cpu.push_back(process_cpu_seconds() - c0);
      dq = counter_value("kernel.quartets") - q0;
      db = counter_value("kernel.batches") - b0;
      dg = counter_value("gemm.calls") - g0;
    }
    pooled_s = median(wall);
    pooled_cpu = median(cpu);
    b.put("fock.build_jk_s", pooled_s, "s");
    b.put("fock.quartets_computed",
          static_cast<double>(fs.quartets_fp64 + fs.quartets_quantized),
          "count");
    b.put("fock.quartets_pruned", static_cast<double>(fs.quartets_pruned),
          "count");
    if (dq <= 0 || db <= 0) {
      throw std::runtime_error(
          "kernel.* counters did not move; build with MAKO_OBSERVABILITY=ON");
    }
    b.put("kernelmako.mean_batch",
          static_cast<double>(dq) / static_cast<double>(db), "quartets");
    b.put("linalg.gemm_calls_per_quartet",
          static_cast<double>(dg) / static_cast<double>(dq), "ratio");
  }

  {
    Span pass(rec, "parallel", workload_span);
    // Serial baseline: the same build on a one-thread context.
    ThreadPool serial_pool(1);
    EriPlanCache serial_plans;
    const ExecutionContext serial(context_options(
        serial_pool, serial_plans, in.options.enable_quantization));
    const FockBuilder fb(basis, in.options.fock, &serial);
    MatrixD j1, k1;
    Span call(rec, "FockBuilder::build_jk (1 thread)", pass.id());
    const double c0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    fb.build_jk(scf.density, policy, j1, k1);
    const double serial_s = seconds_since(t0);
    const double serial_cpu = process_cpu_seconds() - c0;
    b.checks.expect(same_bits(j1, j_pool) && same_bits(k1, k_pool),
                    b.workload + ": J and K on 1 thread are bit-identical to "
                                 "the pinned pool's");
    b.put("parallel.speedup", serial_s / pooled_s, "x");
    b.put("parallel.cpu_ratio", pooled_cpu / serial_cpu, "ratio");
  }

  {
    Span pass(rec, "kernelmako", workload_span);
    const FockBuilder fb(basis, in.options.fock, &ctx);
    const auto sample = sample_quartets(fb.plan(), in.options.prune_threshold,
                                        in.options.fock.batch_size, b.seed);
    kernel_probe(b, ctx, sample, Precision::kFP64, in.options.fock.batch_size,
                 pass.id());
    kernel_probe(b, ctx, sample, Precision::kFP16, in.options.fock.batch_size,
                 pass.id());
  }

  double eigh_s = 0.0;
  {
    Span pass(rec, "linalg", workload_span);
    Span call(rec, "eigh(converged Fock) x5", pass.id());
    eigh_s = median_time(5, [&] { const EigenResult e = eigh(scf.fock); });
    b.put("linalg.eigh_s", eigh_s, "s");
  }

  double xc_s = 0.0;
  {
    Span pass(rec, "scf/xc", workload_span);
    // HF workloads have no functional of their own; the probe integrates
    // B3LYP on the coarse grid so the layer is timed at this system size.
    const XcFunctional xc =
        in.dft ? in.options.xc : XcFunctional::from_name("b3lyp");
    const MolecularGrid grid(mol, in.dft ? in.options.grid : GridSpec::coarse());
    Span call(rec, "integrate_xc x3", pass.id());
    xc_s = median_time(3, [&] {
      const XcResult r =
          integrate_xc(basis, grid, xc, scf.density, &ctx.backend());
    });
    b.put("xc.integrate_s", xc_s, "s");
  }

  {
    Span pass(rec, "scf", workload_span);
    const double iter_s = median(later_iterations({in.job, 1}));
    b.put("scf.iterations", static_cast<double>(scf.iterations), "count");
    b.put("scf.recoveries", static_cast<double>(scf.recovery_log.size()),
          "count");
    b.put("scf.driver_s",
          iter_s - (pooled_s + eigh_s + (in.dft ? xc_s : 0.0)), "s");
  }
}

// ------------------------------------------------------------- references

/// Recomputes every stored reference energy (FP64, converged) on the pinned
/// pool and prints the reference file.
int write_references(const std::string& sample_dir) {
  ThreadPool pool(available_cpus() > 1 ? available_cpus() - 1 : 1);
  const Molecule trimer = Molecule::from_xyz_file(sample_dir + "/water3.xyz");
  std::printf("# Reference energies (Eh) for perfbench; regenerate with\n"
              "# perfbench_scf --write-references --sample sample\n");
  auto emit = [&](const std::string& key, const Molecule& mol,
                  MakoOptions o) {
    o.quantization = false;
    o.precision = "fp64";
    PinnedContext pc(pool, false);
    const Job j =
        run_job(key, mol, nullptr, o.basis, scf_options_from(o), pc.ctx);
    if (!j.scf.converged || j.scf.health != Health::kOk) {
      throw std::runtime_error(key + " did not converge cleanly");
    }
    std::printf("%s %.17g\n", key.c_str(), j.scf.energy);
    std::fflush(stdout);
  };
  emit("hf_water3_tzvp", trimer, hf_tzvp_options());
  emit("b3lyp_water2_tzvp_fp64", water_dimer(trimer), b3lyp_quant_options());
  for (std::size_t n = 2; n <= 4; ++n) {
    for (int s = 1; s <= kClusterSeedsPerSize; ++s) {
      emit(cluster_key(n, s), make_water_cluster(n, static_cast<unsigned>(s)),
           sto3g_options());
    }
  }
  return 0;
}

std::string meta_json(const Bench& b, const std::string& git_sha) {
  std::ostringstream m;
  m << "{\"workload\":\"" << json_escape(b.workload) << "\",\"seed\":" << b.seed
    << ",\"seconds\":" << num(b.seconds) << ",\"trace\":" << (b.trace ? 1 : 0)
    << ",\"nproc\":" << b.nproc << ",\"pool_workers\":" << b.pool.size()
    << ",\"pool_threads\":" << b.pool.size() + 1 << ",\"git_sha\":\""
    << json_escape(git_sha) << "\",\"compiler\":\"" << json_escape(__VERSION__)
    << "\",\"build\":\"" << json_escape(PERFBENCH_BUILD_FLAGS) << "\"}";
  return m.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_scf --workload NAME --seed N --seconds S "
               "--trace 0|1 --sample DIR --references FILE "
               "[--trace-out FILE] [--git-sha SHA]\n"
               "       perfbench_scf --write-references --sample DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--write-references") {
      args[a] = "1";
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      args[a] = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (args.count("--sample") == 0) return usage();
    if (args.count("--write-references")) {
      return write_references(args["--sample"]);
    }
    for (const char* k : {"--workload", "--seed", "--seconds", "--trace",
                          "--references"}) {
      if (args.count(k) == 0) return usage();
    }
    Bench b;
    b.workload = args["--workload"];
    b.seed = std::stoull(args["--seed"]);
    b.seconds = std::stod(args["--seconds"]);
    b.trace = args["--trace"] == "1";
    b.sample_dir = args["--sample"];
    b.refs = load_references(args["--references"]);
    if (b.trace) b.spans = std::make_unique<SpanRecorder>();
    const std::string meta = meta_json(b, args.count("--git-sha")
                                              ? args["--git-sha"]
                                              : "unknown");

    if (b.workload == "hf_water3_tzvp" || b.workload == "b3lyp_water2_quant") {
      run_molecule_workload(b);
    } else if (b.workload == "batch_sto3g") {
      run_batch_workload(b);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   b.workload.c_str());
      return 2;
    }

    if (b.trace && args.count("--trace-out")) {
      b.spans->write(args["--trace-out"], meta);
    }
    std::printf("{\"meta\": %s}\n", meta.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                b.checks.failed == 0 ? "true" : "false",
                static_cast<long long>(b.checks.attempted),
                static_cast<long long>(b.checks.failed));
    for (std::size_t i = 0; i < b.metrics.size(); ++i) {
      const auto& [name, value, unit] = b.metrics[i];
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), num(value).c_str(),
                  unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
