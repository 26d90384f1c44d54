#include "obs/telemetry.hpp"

#include <cstdio>

namespace mako::obs {

std::string telemetry_table(const std::vector<IterationTelemetry>& records) {
  std::string out;
  out +=
      "iter  policy  reason              fp64_thresh        fp64       quant"
      "      pruned  rung retry    route(s)  eri_cpu(s)   digest(s)"
      "       xc(s)     comm(s)        error\n";
  char line[400];
  for (const IterationTelemetry& r : records) {
    std::snprintf(
        line, sizeof line,
        "%4d  %-6s  %-18s  %11.3e %11lld %11lld %11lld  %4d %5d %11.5f "
        "%11.5f %11.5f %11.5f %11.3e %12.3e\n",
        r.iteration, r.quantized_allowed ? r.precision : "fp64", r.reason,
        r.fp64_threshold, static_cast<long long>(r.quartets_fp64),
        static_cast<long long>(r.quartets_quantized),
        static_cast<long long>(r.quartets_pruned), r.ladder_rung, r.retries,
        r.route_seconds, r.eri_seconds, r.digest_seconds, r.xc_seconds,
        r.comm_allreduce_s, r.error);
    out += line;
  }
  return out;
}

std::string telemetry_json(const std::vector<IterationTelemetry>& records) {
  std::string out = "[";
  char line[704];
  for (std::size_t i = 0; i < records.size(); ++i) {
    const IterationTelemetry& r = records[i];
    std::snprintf(
        line, sizeof line,
        "%s\n  {\"iteration\": %d, \"energy\": %.12f, \"error\": %.6e, "
        "\"seconds\": %.6f, \"precision\": \"%s\", \"reason\": \"%s\", "
        "\"quantized_allowed\": %s, \"fp64_threshold\": %.6e, "
        "\"prune_threshold\": %.6e, \"quartets_fp64\": %lld, "
        "\"quartets_quantized\": %lld, \"quartets_pruned\": %lld, "
        "\"quartets_fp64_high_l\": %lld, "
        "\"eri_seconds\": %.6f, \"digest_seconds\": %.6f, "
        "\"route_seconds\": %.6f, \"xc_seconds\": %.6f, "
        "\"ladder_rung\": %d, \"retries\": %d, \"domain_faults\": %lld, "
        "\"comm_retries\": %lld, \"comm_allreduce_s\": %.6e, "
        "\"comm_bytes\": %llu}",
        i == 0 ? "" : ",", r.iteration, r.energy, r.error, r.seconds,
        r.precision, r.reason,
        r.quantized_allowed ? "true" : "false", r.fp64_threshold,
        r.prune_threshold, static_cast<long long>(r.quartets_fp64),
        static_cast<long long>(r.quartets_quantized),
        static_cast<long long>(r.quartets_pruned),
        static_cast<long long>(r.quartets_fp64_high_l), r.eri_seconds,
        r.digest_seconds, r.route_seconds, r.xc_seconds, r.ladder_rung, r.retries,
        static_cast<long long>(r.domain_faults),
        static_cast<long long>(r.comm_retries),
        r.comm_allreduce_s, static_cast<unsigned long long>(r.comm_bytes));
    out += line;
  }
  out += records.empty() ? "]" : "\n]";
  return out;
}

}  // namespace mako::obs
