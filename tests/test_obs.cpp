// Observability layer tests: tracer span collection and JSON shape, metrics
// registry semantics (incl. thread safety), per-iteration SCF telemetry, and
// the compiled-out configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/scf.hpp"
#include "util/timer.hpp"

namespace mako {
namespace {

Molecule h2_molecule() {
  Molecule m;
  m.add_atom(1, 0, 0, 0);
  m.add_atom(1, 0, 0, 1.4);
  return m;
}

/// Stops the tracer and clears collected events on scope exit so tests do
/// not leak an active session into each other.
struct TracerSession {
  explicit TracerSession(std::uint32_t mask = obs::Tracer::kDefaultMask) {
    obs::Tracer::instance().start(mask);
  }
  ~TracerSession() {
    obs::Tracer::instance().stop();
    obs::Tracer::instance().clear();
  }
};

// --- Tracer ---------------------------------------------------------------

TEST(TracerTest, InactiveByDefaultAndSpansAreFree) {
  obs::Tracer& tracer = obs::Tracer::instance();
  EXPECT_FALSE(tracer.active());
  { MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "ignored"); }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, CollectsNestedSpansWithContainment) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  TracerSession session;
  obs::Tracer& tracer = obs::Tracer::instance();
  {
    obs::TraceSpan outer(obs::TraceCat::kApp, "outer");
    {
      obs::TraceSpan inner(obs::TraceCat::kApp, "inner");
    }
  }
  ASSERT_EQ(tracer.event_count(), 2u);
  const std::string json = tracer.to_json();
  // Both spans serialized; the inner one closed first but nests inside the
  // outer's [ts, ts+dur] window.
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
}

TEST(TracerTest, CategoryMaskFiltersSpans) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  TracerSession session(static_cast<std::uint32_t>(obs::TraceCat::kScf));
  { MAKO_TRACE_SCOPE(obs::TraceCat::kScf, "kept"); }
  { MAKO_TRACE_SCOPE(obs::TraceCat::kGemm, "dropped"); }
  EXPECT_EQ(obs::Tracer::instance().event_count(), 1u);
}

TEST(TracerTest, DefaultMaskExcludesFirehoseCategories) {
  EXPECT_EQ(obs::Tracer::kDefaultMask &
                static_cast<std::uint32_t>(obs::TraceCat::kGemm),
            0u);
  EXPECT_EQ(obs::Tracer::kDefaultMask &
                static_cast<std::uint32_t>(obs::TraceCat::kQuant),
            0u);
  EXPECT_NE(obs::Tracer::kDefaultMask &
                static_cast<std::uint32_t>(obs::TraceCat::kFock),
            0u);
}

TEST(TracerTest, JsonIsStructurallySound) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  TracerSession session;
  {
    obs::TraceSpan span(obs::TraceCat::kApp, "with_args");
    span.set_args("\"key\":42");
  }
  const std::string json = obs::Tracer::instance().to_json();
  EXPECT_EQ(json.find("{\"traceEvents\":"), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"key\":42}"), std::string::npos);
  // Balanced braces/brackets (no JSON parser in-tree; structural check).
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TracerTest, SpansFromPoolWorkersAreCollected) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  TracerSession session;
  ThreadPool pool(4);
  pool.parallel_for(64, [&](std::size_t) {
    MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "worker_span");
  });
  EXPECT_EQ(obs::Tracer::instance().event_count(), 64u);
}

TEST(TracerTest, WriteJsonRoundTrips) {
  if (!obs::compiled_in()) GTEST_SKIP() << "observability compiled out";
  TracerSession session;
  { MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "to_disk"); }
  const std::string path = ::testing::TempDir() + "mako_trace_test.json";
  ASSERT_TRUE(obs::Tracer::instance().write_json(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  ASSERT_GT(n, 0u);
  EXPECT_EQ(std::string(buf).find("{\"traceEvents\":"), 0u);
  std::remove(path.c_str());
}

// --- Metrics registry ------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.counter("c").add(2);
  EXPECT_EQ(reg.counter("c").value(), 5);
  reg.gauge("g").set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 2.5);
  obs::Histogram& h = reg.histogram("h");
  h.observe(1e-3);
  h.observe(1e-2);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.sum(), 1.1e-2);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1e-2);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5e-3);
}

TEST(MetricsTest, EmptyHistogramReportsZeros) {
  obs::MetricsRegistry reg;
  const obs::Histogram& h = reg.histogram("empty");
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(MetricsTest, HistogramBucketsAreLogSpaced) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("b");
  h.observe(5e-4);   // within [1e-4, 1e-3) => bucket with upper bound 1e-3
  h.observe(2.0);    // within [1, 10)
  std::int64_t total = 0;
  for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
    total += h.bucket_count(i);
    if (h.bucket_count(i) > 0) {
      EXPECT_GE(obs::Histogram::bucket_upper_bound(i), 5e-4);
    }
  }
  EXPECT_EQ(total, 2);
}

TEST(MetricsTest, ResetZeroesInPlaceKeepingReferences) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("stable");
  c.add(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0);  // same object, zeroed
  c.add(1);
  EXPECT_EQ(reg.counter("stable").value(), 1);
}

TEST(MetricsTest, ConcurrentUpdatesAreLossless) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("hot");
  obs::Histogram& h = reg.histogram("hot_s");
  ThreadPool pool(4);
  constexpr int kIters = 10000;
  pool.parallel_for(kIters, [&](std::size_t) {
    c.add(1);
    h.observe(1e-6);
  });
  EXPECT_EQ(c.value(), kIters);
  EXPECT_EQ(h.count(), kIters);
  EXPECT_NEAR(h.sum(), kIters * 1e-6, 1e-9);
}

TEST(MetricsTest, JsonAndReportContainInstruments) {
  obs::MetricsRegistry reg;
  reg.counter("alpha.count").add(2);
  reg.gauge("beta.gauge").set(1.5);
  reg.histogram("gamma.hist").observe(0.25);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"alpha.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"beta.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"gamma.hist\""), std::string::npos);
  const std::string report = reg.report();
  EXPECT_NE(report.find("alpha.count"), std::string::npos);
}

// --- StageTimings shim -----------------------------------------------------

TEST(MetricsTest, StageTimingsIsThreadSafe) {
  StageTimings timings;
  ThreadPool pool(4);
  pool.parallel_for(5000, [&](std::size_t) { timings.add("fock", 1e-3); });
  EXPECT_EQ(timings.calls("fock"), 5000);
  EXPECT_NEAR(timings.total("fock"), 5.0, 1e-6);
}

// --- Instrumentation-derived counters (H2 / STO-3G) ------------------------

TEST(ObsIntegrationTest, ScfCountersMatchKnownCallCounts) {
  if (!obs::compiled_in()) {
    GTEST_SKIP() << "instrumentation compiled out; no counters to check";
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.reset();

  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  const ScfResult r = run_scf(h2, bs, {});
  ASSERT_TRUE(r.converged);

  const obs::Counter* runs = reg.find_counter("scf.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->value(), 1);

  const obs::Counter* iters = reg.find_counter("scf.iterations");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->value(), r.iterations);

  // One Fock build per iteration (no retries in a clean run).
  const obs::Counter* builds = reg.find_counter("fock.builds");
  ASSERT_NE(builds, nullptr);
  EXPECT_EQ(builds->value(), r.iterations);

  // Quartet routing counters match the iteration log exactly.
  std::int64_t fp64 = 0, pruned = 0;
  for (const ScfIterationRecord& rec : r.iteration_log) {
    fp64 += rec.quartets_fp64;
    pruned += rec.quartets_pruned;
  }
  EXPECT_EQ(reg.find_counter("fock.quartets_fp64")->value(), fp64);
  EXPECT_EQ(reg.find_counter("fock.quartets_pruned")->value(), pruned);
  // Every non-pruned quartet went through a KernelMako batch, and so did
  // the plan's Schwarz pass: one diagonal quartet (ab|ab) per unique shell
  // pair.
  const auto ns = static_cast<std::int64_t>(bs.num_shells());
  EXPECT_EQ(reg.find_counter("kernel.quartets")->value(),
            fp64 + ns * (ns + 1) / 2);

  // Per-stage histograms observed one sample per Fock build / iteration.
  EXPECT_EQ(reg.find_histogram("fock.eri_s")->count(), r.iterations);
  EXPECT_EQ(reg.find_histogram("scf.iteration_s")->count(), r.iterations);
}

// --- Per-iteration telemetry -----------------------------------------------

TEST(TelemetryTest, ScfFillsOneRecordPerIteration) {
  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  const ScfResult r = run_scf(h2, bs, {});
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.telemetry.size(), r.iteration_log.size());
  for (std::size_t i = 0; i < r.telemetry.size(); ++i) {
    const obs::IterationTelemetry& t = r.telemetry[i];
    EXPECT_EQ(t.iteration, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(t.energy, r.iteration_log[i].energy);
    EXPECT_EQ(t.quartets_fp64, r.iteration_log[i].quartets_fp64);
    EXPECT_STREQ(t.precision, "fp64");
    EXPECT_FALSE(t.quantized_allowed);
    EXPECT_EQ(t.ladder_rung, 0);
  }
}

TEST(TelemetryTest, QuantizedRunReportsPolicy) {
  const Molecule w = make_water();
  // STO-3G bounds all clear the loose FP64 threshold; 6-31G has shells whose
  // weighted Schwarz bounds land in the quantized band on early iterations.
  const BasisSet bs(w, "6-31g");
  ScfOptions options;
  options.enable_quantization = true;
  const ExecutionContext ctx;
  const ScfResult r = run_scf(w, bs, options, &ctx);
  ASSERT_FALSE(r.telemetry.empty());
  // Early iterations run quantized under the convergence-aware schedule.
  EXPECT_TRUE(r.telemetry.front().quantized_allowed);
  EXPECT_GT(r.telemetry.front().fp64_threshold, 0.0);
  EXPECT_GT(r.telemetry.front().quartets_quantized, 0);
  // The accepted final iteration carries no quantized contamination: either
  // the policy went exact, or the tightened threshold routed zero quartets
  // through the quantized path.
  EXPECT_EQ(r.telemetry.back().quartets_quantized, 0);
}

TEST(TelemetryTest, TableAndJsonSerializeRecords) {
  std::vector<obs::IterationTelemetry> records(2);
  records[0].iteration = 0;
  records[0].energy = -1.0;
  records[0].quartets_fp64 = 10;
  records[1].iteration = 1;
  records[1].energy = -1.1;
  records[1].precision = "fp16";
  records[1].quantized_allowed = true;
  records[1].xc_seconds = 0.125;
  const std::string table = obs::telemetry_table(records);
  EXPECT_NE(table.find("iter"), std::string::npos);
  EXPECT_NE(table.find("fp16"), std::string::npos);
  // The ERI column sums thread CPU seconds; XC is wall time.
  EXPECT_NE(table.find("eri_cpu(s)"), std::string::npos);
  EXPECT_NE(table.find("xc(s)"), std::string::npos);
  EXPECT_NE(table.find("0.12500"), std::string::npos);
  const std::string json = obs::telemetry_json(records);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"quartets_fp64\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"precision\": \"fp16\""), std::string::npos);
  EXPECT_NE(json.find("\"xc_seconds\": 0.125000"), std::string::npos);
  EXPECT_NE(json.find("\"eri_seconds\": "), std::string::npos);
  EXPECT_EQ(obs::telemetry_json({}), "[]");
}

// --- Zero-iteration ratio guards -------------------------------------------

TEST(TelemetryTest, ZeroIterationRunHasSafeRatios) {
  const Molecule h2 = h2_molecule();
  const BasisSet bs(h2, "sto-3g");
  ScfOptions options;
  options.max_iterations = 0;
  const ScfResult r = run_scf(h2, bs, options);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_TRUE(r.iteration_log.empty());
  EXPECT_TRUE(r.telemetry.empty());
  // The Fig-8 ratio metric must not divide by zero.
  EXPECT_DOUBLE_EQ(r.avg_iteration_seconds(), 0.0);
  // Formatting empty telemetry is well-defined too.
  EXPECT_EQ(obs::telemetry_json(r.telemetry), "[]");
}

// --- Compiled-out configuration --------------------------------------------

TEST(ObsCompiledOutTest, DisabledBuildEmitsNothing) {
  if (obs::compiled_in()) {
    GTEST_SKIP() << "only meaningful with -DMAKO_OBSERVABILITY=OFF";
  }
  // start() is a no-op and spans never record.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.start(obs::Tracer::kAllMask);
  EXPECT_FALSE(tracer.active());
  { MAKO_TRACE_SCOPE(obs::TraceCat::kApp, "nothing"); }
  {
    obs::TraceSpan span(obs::TraceCat::kApp, "nothing_either");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.event_count(), 0u);

  // Metric macros compile to no-ops: the named instruments never appear.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  MAKO_METRIC_COUNT("compiled.out.counter", 1);
  MAKO_METRIC_OBSERVE("compiled.out.hist", 1.0);
  EXPECT_EQ(reg.find_counter("compiled.out.counter"), nullptr);
  EXPECT_EQ(reg.find_histogram("compiled.out.hist"), nullptr);
}

}  // namespace
}  // namespace mako
