// [Figure 6] FP64 ERI kernel microbenchmark: Mako vs the per-quartet
// reference engine (LibintX role), in shell quartets per second, for the
// paper's three contraction-degree settings {1,1}, {1,5}, {5,5} across
// angular-momentum classes.
//
// The paper reports average speedups of 2.67x / 2.34x / 3.11x on A100; the
// host build must reproduce the *shape*: Mako ahead everywhere, with the
// advantage growing with angular momentum.
//
// `--json=PATH` additionally writes the records as a JSON document (consumed
// by bench/run_benchmarks.sh to produce BENCH_fig6.json).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "compilermako/registry.hpp"
#include "integrals/eri_reference.hpp"
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

struct Row {
  std::string name;
  int kab = 0;
  int kcd = 0;
  double mako_qps = 0.0;
  double ref_qps = 0.0;
};

struct Group {
  std::string label;
  std::vector<Row> rows;
  double geo_mean = 0.0;
};

Row run_class(const EriClassKey& key) {
  const std::size_t nq = quartets_for_class(key);
  const CalibrationBatch batch = make_calibration_batch(key, nq, 17);

  Row row;
  row.name = key.name();
  row.kab = key.kab;
  row.kcd = key.kcd;
  // Mako batched engine (default KernelMako config, FP64).
  {
    const BatchedEriEngine engine;
    std::vector<std::vector<double>> out;
    engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets),
                         out);  // warm-up
    Timer t;
    engine.compute_batch(key, std::span<const QuartetRef>(batch.quartets),
                         out);
    row.mako_qps = static_cast<double>(nq) / t.seconds();
  }
  // Reference per-quartet engine.
  {
    ReferenceEriEngine engine;
    std::vector<double> out;
    Timer t;
    for (const QuartetRef& q : batch.quartets) {
      engine.compute(*q.a, *q.b, *q.c, *q.d, out);
    }
    row.ref_qps = static_cast<double>(nq) / t.seconds();
  }
  return row;
}

Group run_contraction(const char* label, int kab, int kcd, int max_l) {
  Group group;
  group.label = label;
  std::printf("\ncontraction degrees %s\n", label);
  std::printf("%-18s %16s %16s %9s\n", "ERI class", "Mako [quartet/s]",
              "ref  [quartet/s]", "speedup");
  double geo = 1.0;
  for (int l = 0; l <= max_l; ++l) {
    const EriClassKey key{l, l, l, l, kab, kcd};
    Row row = run_class(key);
    std::printf("%-18s %16.0f %16.0f %8.2fx\n", row.name.c_str(),
                row.mako_qps, row.ref_qps, row.mako_qps / row.ref_qps);
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
  std::fprintf(f, "{\n  \"figure\": \"fig6\",\n  \"metric\": "
                  "\"shell quartets per second\",\n  \"groups\": [\n");
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
          "\"mako_qps\": %.1f, \"ref_qps\": %.1f, \"speedup\": %.4f}%s\n",
          row.name.c_str(), row.kab, row.kcd, row.mako_qps, row.ref_qps,
          row.mako_qps / row.ref_qps, r + 1 < group.rows.size() ? "," : "");
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

  std::printf("[Figure 6] FP64 ERI kernels: Mako vs per-quartet reference "
              "(shell quartets per second)\n");
  std::vector<Group> groups;
  groups.push_back(run_contraction("{1,1}", 1, 1, 4));  // up to (gg|gg)
  groups.push_back(run_contraction("{1,5}", 1, 5, 3));  // up to (ff|ff)
  groups.push_back(run_contraction("{5,5}", 5, 5, 2));  // up to (dd|dd)

  if (json_path != nullptr) write_json(json_path, groups);
  return 0;
}
