// [Figure 6] FP64 ERI kernel microbenchmark: Mako vs the per-quartet
// reference engine (LibintX role), in shell quartets per second, for the
// paper's three contraction-degree settings {1,1}, {1,5}, {5,5} across
// angular-momentum classes.
//
// The paper reports average speedups of 2.67x / 2.34x / 3.11x on A100; the
// host build must reproduce the *shape*: Mako ahead everywhere, with the
// advantage growing with angular momentum.
//
// A third column runs the same calibration batch through one engine at
// Precision::kFP16 (QuantMako's route: P/T staging plus the FP32 GEMMs), so
// the per-class FP16/FP64 kernel ratio is a repeated measurement too.  Each
// side is timed as the median of kReps warm calls.
//
// `--json=PATH` additionally writes the records as a JSON document (consumed
// by bench/run_benchmarks.sh to produce BENCH_fig6.json).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compilermako/registry.hpp"
#include "eri_reference.hpp"
#include "kernelmako/batched_eri.hpp"
#include "util/timer.hpp"

namespace {
using namespace mako;

std::size_t quartets_for_class(const EriClassKey& key) {
  const int work = key.ltot() + key.kab * key.kcd / 4;
  if (work <= 4) return 256;
  if (work <= 8) return 48;
  if (work <= 12) return 12;
  return 4;
}

constexpr int kReps = 7;  ///< timed calls per side, after one warm-up

struct Row {
  std::string name;
  int kab = 0;
  int kcd = 0;
  double mako_qps = 0.0;
  double mako_fp16_qps = 0.0;
  double ref_qps = 0.0;
};

struct Group {
  std::string label;
  std::vector<Row> rows;
  double geo_mean = 0.0;
};

/// Quartets per second of `call` over nq quartets: one warm-up call, then
/// the median of kReps timed calls.
template <typename F>
double median_qps(std::size_t nq, F&& call) {
  call();
  std::vector<double> s;
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    call();
    s.push_back(t.seconds());
  }
  std::nth_element(s.begin(), s.begin() + kReps / 2, s.end());
  return static_cast<double>(nq) / s[kReps / 2];
}

/// Batched engine at `precision` over the calibration batch.
double engine_qps(const EriClassKey& key, const CalibrationBatch& batch,
                  Precision precision) {
  KernelConfig config;
  config.gemm.precision = precision;
  const BatchedEriEngine engine(config);
  std::vector<std::vector<double>> out;
  return median_qps(batch.quartets.size(), [&] {
    engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets),
                         out);
  });
}

Row run_class(const EriClassKey& key) {
  const std::size_t nq = quartets_for_class(key);
  const CalibrationBatch batch = make_calibration_batch(key, nq, 17);

  Row row;
  row.name = key.name();
  row.kab = key.kab;
  row.kcd = key.kcd;
  row.mako_qps = engine_qps(key, batch, Precision::kFP64);
  row.mako_fp16_qps = engine_qps(key, batch, Precision::kFP16);
  // Reference per-quartet engine.
  ReferenceEriEngine engine;
  std::vector<double> out;
  row.ref_qps = median_qps(nq, [&] {
    for (const QuartetRef& q : batch.quartets) {
      engine.compute(*q.a, *q.b, *q.c, *q.d, out);
    }
  });
  return row;
}

Group run_contraction(const char* label, int kab, int kcd, int max_l) {
  Group group;
  group.label = label;
  std::printf("\ncontraction degrees %s\n", label);
  std::printf("%-18s %16s %16s %16s %9s %10s\n", "ERI class",
              "Mako [quartet/s]", "FP16 [quartet/s]", "ref  [quartet/s]",
              "speedup", "FP16/FP64");
  double geo = 1.0;
  for (int l = 0; l <= max_l; ++l) {
    const EriClassKey key{l, l, l, l, kab, kcd};
    Row row = run_class(key);
    std::printf("%-18s %16.0f %16.0f %16.0f %8.2fx %9.2fx\n",
                row.name.c_str(), row.mako_qps, row.mako_fp16_qps,
                row.ref_qps, row.mako_qps / row.ref_qps,
                row.mako_fp16_qps / row.mako_qps);
    geo *= row.mako_qps / row.ref_qps;
    group.rows.push_back(std::move(row));
  }
  group.geo_mean =
      std::pow(geo, 1.0 / static_cast<double>(group.rows.size()));
  std::printf("geometric-mean speedup: %.2fx\n", group.geo_mean);
  return group;
}

void write_json(const char* path, const std::vector<Group>& groups) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"figure\": \"fig6\",\n  \"metric\": "
               "\"shell quartets per second\",\n  \"timing\": \"median "
               "of %d warm calls per side\",\n  \"groups\": [\n",
               kReps);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    std::fprintf(f, "  {\n    \"contraction\": \"%s\",\n"
                    "    \"geo_mean_speedup\": %.4f,\n    \"rows\": [\n",
                 group.label.c_str(), group.geo_mean);
    for (std::size_t r = 0; r < group.rows.size(); ++r) {
      const Row& row = group.rows[r];
      std::fprintf(
          f,
          "      {\"class\": \"%s\", \"kab\": %d, \"kcd\": %d, "
          "\"mako_qps\": %.1f, \"mako_fp16_qps\": %.1f, "
          "\"ref_qps\": %.1f, \"speedup\": %.4f, "
          "\"fp16_over_fp64\": %.4f}%s\n",
          row.name.c_str(), row.kab, row.kcd, row.mako_qps,
          row.mako_fp16_qps, row.ref_qps, row.mako_qps / row.ref_qps,
          row.mako_fp16_qps / row.mako_qps,
          r + 1 < group.rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }%s\n", g + 1 < groups.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: bench_fig6_eri_micro [--json=PATH]\n");
      return 2;
    }
  }

  std::printf("[Figure 6] FP64 ERI kernels: Mako vs per-quartet reference, "
              "and Mako at FP16 (shell quartets per second, median of %d "
              "warm calls)\n",
              kReps);
  std::vector<Group> groups;
  groups.push_back(run_contraction("{1,1}", 1, 1, 4));  // up to (gg|gg)
  groups.push_back(run_contraction("{1,5}", 1, 5, 3));  // up to (ff|ff)
  groups.push_back(run_contraction("{5,5}", 5, 5, 2));  // up to (dd|dd)

  if (json_path != nullptr) write_json(json_path, groups);
  return 0;
}
