// [Batch] Multi-molecule batch throughput: jobs/s vs jobs-in-flight.
//
// The BatchScheduler's pitch is that N small SCF jobs sharing one execution
// context beat N isolated runs two ways: shared plan caches (the first
// job pays plan construction, the rest hit), and concurrency (driver threads
// interleave jobs at parallel_for chunk granularity).  This bench sweeps the
// jobs-in-flight knob over a fixed mixed workload and reports throughput plus
// the cache-reuse counters, so a regression in either mechanism shows up as a
// number, not a feeling.
//
// Usage: bench_batch_throughput [njobs] [--json=PATH]
// `--json=PATH` writes the records as a JSON document (consumed by
// bench/run_benchmarks.sh to produce BENCH_batch.json).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chem/builders.hpp"
#include "core/batch.hpp"

namespace {
using namespace mako;

struct Record {
  int concurrency = 0;
  int jobs = 0;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  long long fock_plan_builds = 0;
  long long fock_plan_hits = 0;
  double scf_seconds = 0.0;  ///< summed per-job wall time (the serial cost)
};

/// A mixed workload over a few distinct geometries: repetition is the point —
/// production batches (conformer sweeps, finite-difference gradients) hammer
/// the same basis over and over, which is what the shared caches exploit.
std::vector<BatchJobSpec> make_workload(int njobs) {
  const Molecule geometries[] = {make_water(), make_water_cluster(2),
                                 make_alkane(2)};
  const char* names[] = {"water", "water2", "ethane"};
  std::vector<BatchJobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(njobs));
  for (int i = 0; i < njobs; ++i) {
    BatchJobSpec spec;
    const int g = i % 3;
    spec.name = std::string(names[g]) + "-" + std::to_string(i);
    spec.molecule = geometries[g];
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

Record run_leg(const std::vector<BatchJobSpec>& jobs, int concurrency) {
  BatchOptions options;
  options.concurrency = concurrency;
  BatchScheduler scheduler(options);
  const std::vector<BatchJobResult> results = scheduler.run(jobs);

  const BatchRunStats& stats = scheduler.stats();
  Record rec;
  rec.concurrency = concurrency;
  rec.jobs = stats.jobs_total;
  rec.wall_seconds = stats.wall_seconds;
  rec.jobs_per_second = stats.jobs_per_second;
  rec.fock_plan_builds = static_cast<long long>(stats.fock_plan_builds);
  rec.fock_plan_hits = static_cast<long long>(stats.fock_plan_hits);
  rec.scf_seconds = stats.scf_seconds;

  int unhealthy = 0;
  for (const BatchJobResult& r : results) {
    if (!r.ran || r.health != Health::kOk) ++unhealthy;
  }
  std::printf("%11d %6d %12.3f %12.2f %12lld %12lld %10d\n", concurrency,
              rec.jobs, rec.wall_seconds, rec.jobs_per_second,
              rec.fock_plan_builds, rec.fock_plan_hits, unhealthy);
  return rec;
}

void write_json(const char* path, const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"figure\": \"batch\",\n  \"metric\": "
                  "\"batch jobs per second vs jobs in flight\",\n"
                  "  \"legs\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(
        f,
        "    {\"concurrency\": %d, \"jobs\": %d, \"wall_seconds\": %.6f, "
        "\"jobs_per_second\": %.4f, \"fock_plan_builds\": %lld, "
        "\"fock_plan_hits\": %lld, \"scf_seconds\": %.6f}%s\n",
        r.concurrency, r.jobs, r.wall_seconds, r.jobs_per_second,
        r.fock_plan_builds, r.fock_plan_hits, r.scf_seconds,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  int njobs = 0;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      njobs = std::atoi(argv[i]);
    }
  }
  if (njobs <= 0) njobs = 12;

  const std::vector<BatchJobSpec> jobs = make_workload(njobs);

  std::printf("[Batch] throughput over %d mixed jobs "
              "(sto-3g/hf; 3 distinct geometries)\n",
              njobs);
  std::printf("%11s %6s %12s %12s %12s %12s %10s\n", "in-flight", "jobs",
              "wall s", "jobs/s", "plan builds", "plan hits", "unhealthy");

  std::vector<Record> records;
  for (const int k : {1, 2, 4}) {
    records.push_back(run_leg(jobs, k));
  }

  std::printf("\nexpected shape: plan builds stay at the distinct-geometry "
              "count while hits grow with njobs; jobs/s improves with "
              "in-flight jobs until the shared pool saturates.\n");

  if (json_path != nullptr) write_json(json_path, records);
  return 0;
}
