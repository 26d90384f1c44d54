// BatchScheduler tests: per-job isolation inside one shared execution
// context, cross-job determinism (a job in a batch produces bit-identical
// energies to the same job run solo), manifest parsing, and the JSON result
// document the CLI prints.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/batch.hpp"
#include "core/execution_context.hpp"
#include "core/mako.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"
#include "scf/scf.hpp"
#include "util/json.hpp"

namespace mako {
namespace {

/// Unique-per-process scratch path; removed in TearDown.
std::string scratch_path(const std::string& name) {
  return "./batch_test_" + name + "." + std::to_string(::getpid());
}

class BatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }

  std::string track(const std::string& name) {
    cleanup_.push_back(scratch_path(name));
    return cleanup_.back();
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const std::string path = track(name);
    std::ofstream out(path);
    out << text;
    return path;
  }

  static BatchJobSpec water_job(const std::string& name) {
    BatchJobSpec spec;
    spec.name = name;
    spec.molecule = make_water();
    return spec;
  }

  std::vector<std::string> cleanup_;
};

// The batch runs concurrently over ONE context, yet every job keeps its own
// outcome: two converging jobs, a wall-clock-budgeted job that stops with
// kDeadlineExceeded, and an odd-electron job rejected before SCF — none of
// them observe each other.
TEST_F(BatchTest, MixedBatchIsolatesPerJobOutcomes) {
  std::vector<BatchJobSpec> jobs;
  jobs.push_back(water_job("water"));
  jobs.push_back(water_job("water-again"));

  BatchJobSpec deadline = water_job("deadline");
  deadline.molecule = make_water_cluster(2);
  deadline.options.durability.max_seconds = 1e-4;
  jobs.push_back(deadline);

  BatchJobSpec odd = water_job("odd-charge");
  odd.charge = 1;  // 9 electrons: open-shell, rejected by the RHF driver
  jobs.push_back(odd);

  BatchOptions options;
  options.concurrency = 4;
  BatchScheduler scheduler(options);
  const std::vector<BatchJobResult> results = scheduler.run(jobs);

  ASSERT_EQ(results.size(), 4u);  // manifest order, one slot per job
  EXPECT_EQ(results[0].name, "water");
  EXPECT_TRUE(results[0].ran);
  EXPECT_EQ(results[0].health, Health::kOk);
  EXPECT_EQ(results[0].exit_code, 0);
  EXPECT_TRUE(results[0].scf.converged);

  EXPECT_TRUE(results[1].ran);
  EXPECT_EQ(results[1].health, Health::kOk);

  EXPECT_TRUE(results[2].ran);
  EXPECT_EQ(results[2].health, Health::kDeadlineExceeded);
  EXPECT_EQ(results[2].exit_code, exit_code_for(Health::kDeadlineExceeded));
  EXPECT_FALSE(results[2].scf.converged);

  EXPECT_FALSE(results[3].ran);
  EXPECT_EQ(results[3].exit_code, 1);
  EXPECT_NE(results[3].error.find("odd electron"), std::string::npos);

  const BatchRunStats& stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_total, 4);
  EXPECT_EQ(stats.jobs_ok, 2);
  EXPECT_EQ(stats.jobs_deadline, 1);
  EXPECT_EQ(stats.jobs_error, 1);
  EXPECT_GT(stats.wall_seconds, 0.0);
  // water / water-again / odd-charge share one pooled BasisSet, so the
  // address-keyed FockPlanCache must report cross-job reuse.
  EXPECT_GT(stats.fock_plan_hits, 0);
  EXPECT_LT(stats.fock_plan_builds, stats.jobs_total);
}

// The determinism contract the shared caches must not break: a job run inside
// a concurrent batch produces the SAME bits as the same job run solo through
// run_scf.
TEST_F(BatchTest, BatchedJobMatchesSoloRunBitForBit) {
  const Molecule water = make_water();

  // Solo leg: exactly what MakoEngine would run (same expansion point).
  const BasisSet basis(water, "sto-3g");
  const ExecutionContext solo_ctx;
  const ScfResult solo =
      run_scf(water, basis, scf_options_from(MakoOptions{}), &solo_ctx);
  ASSERT_TRUE(solo.converged);

  // Batch leg: the same job racing three siblings over shared caches.
  std::vector<BatchJobSpec> jobs;
  for (const char* name : {"a", "b", "c", "d"}) jobs.push_back(water_job(name));
  jobs[2].molecule = make_water_cluster(2);  // different chemistry in flight

  BatchOptions options;
  options.concurrency = 4;
  BatchScheduler scheduler(options);
  const std::vector<BatchJobResult> results = scheduler.run(jobs);

  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    ASSERT_TRUE(results[i].ran);
    EXPECT_EQ(results[i].health, solo.health);
    EXPECT_EQ(results[i].scf.iterations, solo.iterations);
    EXPECT_EQ(results[i].scf.energy, solo.energy);  // bitwise, not NEAR
    EXPECT_EQ(results[i].scf.e_coulomb, solo.e_coulomb);
    EXPECT_EQ(results[i].scf.e_exact_exchange, solo.e_exact_exchange);
  }
}

#if MAKO_FAULT_INJECTION
// A fault-injected job walks the recovery ladder to kRecovered while its
// siblings stay kOk — the injector is process-wide, so this also pins down
// that the site only fires for the configuration that reaches it.
TEST_F(BatchTest, FaultedJobRecoversWithoutDisturbingSiblings) {
  std::vector<BatchJobSpec> jobs;
  jobs.push_back(water_job("clean"));

  BatchJobSpec drift = water_job("drift");
  drift.incremental = true;
  drift.incremental_rebuild_period = 100;
  drift.options.max_iterations = 100;
  drift.fault_site = "scf.incremental_drift";
  drift.fault.mode = FaultMode::kScale;
  drift.fault.magnitude = 1e-3;
  drift.fault.max_fires = -1;
  jobs.push_back(drift);

  BatchOptions options;
  options.concurrency = 2;
  BatchScheduler scheduler(options);
  const std::vector<BatchJobResult> results = scheduler.run(jobs);

  EXPECT_EQ(results[0].health, Health::kOk);
  ASSERT_TRUE(results[1].ran);
  EXPECT_EQ(results[1].health, Health::kRecovered);
  EXPECT_TRUE(results[1].scf.converged);
  EXPECT_EQ(scheduler.stats().jobs_recovered, 1);
  // run() disarms its sites: a later batch must start clean.
  const std::vector<BatchJobResult> rerun =
      scheduler.run({water_job("clean"), water_job("clean2")});
  EXPECT_EQ(rerun[0].health, Health::kOk);
  EXPECT_EQ(rerun[1].health, Health::kOk);
}
#endif

TEST_F(BatchTest, EmptyJobListThrows) {
  BatchOptions options;
  BatchScheduler scheduler(options);
  EXPECT_THROW(scheduler.run({}), InputError);
}

TEST_F(BatchTest, ManifestMergesDefaultsAndResolvesRelativePaths) {
  const std::string xyz = write_file(
      "water.xyz",
      "3\nwater\nO 0.0 0.0 0.117\nH 0.0 0.757 -0.464\nH 0.0 -0.757 -0.464\n");
  const std::string bare = xyz.substr(xyz.find_last_of('/') + 1);
  const std::string manifest = write_file(
      "manifest.json",
      "{\n"
      "  \"defaults\": {\"basis\": \"6-31g\", \"convergence\": 1e-9,\n"
      "                 \"max_iterations\": 42},\n"
      "  \"jobs\": [\n"
      "    {\"name\": \"a\", \"xyz\": \"" + bare + "\"},\n"
      "    {\"xyz\": \"/abs/path.xyz\", \"basis\": \"sto-3g\",\n"
      "     \"charge\": -2, \"incremental\": true, \"max_seconds\": 1.5}\n"
      "  ]\n"
      "}\n");

  const std::vector<BatchJobSpec> jobs =
      BatchScheduler::load_manifest(manifest);
  ASSERT_EQ(jobs.size(), 2u);

  EXPECT_EQ(jobs[0].name, "a");
  EXPECT_EQ(jobs[0].options.basis, "6-31g");  // from defaults
  EXPECT_EQ(jobs[0].options.convergence, 1e-9);
  EXPECT_EQ(jobs[0].options.max_iterations, 42);
  // Relative xyz resolved against the manifest's directory.
  std::ifstream resolved(jobs[0].xyz_path);
  EXPECT_TRUE(resolved.good()) << jobs[0].xyz_path;

  EXPECT_EQ(jobs[1].name, "job1");               // auto-named by slot
  EXPECT_EQ(jobs[1].xyz_path, "/abs/path.xyz");  // absolute: untouched
  EXPECT_EQ(jobs[1].options.basis, "sto-3g");    // job overrides defaults
  EXPECT_EQ(jobs[1].options.max_iterations, 42); // defaults still apply
  EXPECT_EQ(jobs[1].charge, -2);
  EXPECT_TRUE(jobs[1].incremental);
  EXPECT_EQ(jobs[1].options.durability.max_seconds, 1.5);
}

TEST_F(BatchTest, ManifestRejectsUnknownAndMisplacedKeys) {
  const std::string typo = write_file(
      "typo.json", "{\"jobs\": [{\"xyz\": \"w.xyz\", \"basiss\": \"x\"}]}");
  EXPECT_THROW(BatchScheduler::load_manifest(typo), InputError);

  const std::string top = write_file(
      "top.json", "{\"job\": [{\"xyz\": \"w.xyz\"}]}");
  EXPECT_THROW(BatchScheduler::load_manifest(top), InputError);

  // defaults may not set per-job identity keys.
  const std::string named = write_file(
      "named.json",
      "{\"defaults\": {\"name\": \"x\"}, \"jobs\": [{\"xyz\": \"w.xyz\"}]}");
  EXPECT_THROW(BatchScheduler::load_manifest(named), InputError);

  const std::string noxyz = write_file(
      "noxyz.json", "{\"jobs\": [{\"name\": \"x\"}]}");
  EXPECT_THROW(BatchScheduler::load_manifest(noxyz), InputError);

  // A removed key (the host kernel tuner's switch): an old manifest that
  // still sets it must fail loudly rather than be silently ignored.
  const std::string autotune = write_file(
      "autotune.json",
      "{\"jobs\": [{\"xyz\": \"w.xyz\", \"autotune\": true}]}");
  EXPECT_THROW(BatchScheduler::load_manifest(autotune), InputError);

  // Likewise the retired ERI-engine choice: one Fock path is left.
  const std::string engine = write_file(
      "engine.json",
      "{\"jobs\": [{\"xyz\": \"w.xyz\", \"engine\": \"mako\"}]}");
  EXPECT_THROW(BatchScheduler::load_manifest(engine), InputError);

  const std::string garbage = write_file("garbage.json", "{\"jobs\": [");
  EXPECT_THROW(BatchScheduler::load_manifest(garbage), InputError);

  EXPECT_THROW(BatchScheduler::load_manifest(scratch_path("missing.json")),
               InputError);
}

// The CLI's --batch output must be real JSON: round-trip it through the
// parser and check the fields scripts grep for.
TEST_F(BatchTest, ResultsJsonRoundTripsThroughParser) {
  std::vector<BatchJobSpec> jobs;
  jobs.push_back(water_job("good"));
  BatchJobSpec bad = water_job("bad \"quoted\" name");  // escaping matters
  bad.charge = 1;
  jobs.push_back(bad);

  BatchOptions options;
  options.concurrency = 2;
  BatchScheduler scheduler(options);
  const std::vector<BatchJobResult> results = scheduler.run(jobs);

  const std::string text = batch_results_json(results, scheduler.stats());
  const json::Value doc = json::Value::parse(text);  // throws on bad JSON

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.string_or("schema", ""), "mako.batch.v1");

  const json::Value* job_list = doc.find("jobs");
  ASSERT_NE(job_list, nullptr);
  ASSERT_EQ(job_list->items().size(), 2u);

  const json::Value& good = job_list->items()[0];
  EXPECT_EQ(good.string_or("name", ""), "good");
  EXPECT_TRUE(good.bool_or("ran", false));
  EXPECT_EQ(good.string_or("health", ""), "ok");
  EXPECT_EQ(good.int_or("exit_code", -1), 0);
  ASSERT_NE(good.find("energy"), nullptr);
  // 12 significant digits in the document; not a bit-exact channel.
  EXPECT_NEAR(good.find("energy")->as_number(), results[0].scf.energy, 1e-9);

  const json::Value& rejected = job_list->items()[1];
  EXPECT_EQ(rejected.string_or("name", ""), "bad \"quoted\" name");
  EXPECT_FALSE(rejected.bool_or("ran", true));
  EXPECT_EQ(rejected.string_or("health", ""), "input_error");

  const json::Value* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->int_or("jobs_total", -1), 2);
  EXPECT_EQ(stats->int_or("jobs_ok", -1), 1);
  EXPECT_GT(stats->number_or("wall_seconds", -1.0), 0.0);
  ASSERT_NE(stats->find("fock_plan_hits"), nullptr);
}

}  // namespace
}  // namespace mako
