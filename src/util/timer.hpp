// Wall-clock timing utilities used by the SCF driver and every benchmark
// harness.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace mako {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates named timing sections across a run (e.g. "eri", "fock",
/// "diagonalization") so the engine can print the per-stage breakdown that
/// the paper's artifact reports.
///
/// Thin shim over obs::MetricsRegistry: each stage is a histogram whose
/// sum/count are the old total/calls.  Unlike the original map-based
/// accumulator, add() is safe to call concurrently from thread-pool workers.
class StageTimings {
 public:
  void add(const std::string& stage, double seconds) {
    registry_.histogram(stage).observe(seconds);
  }

  [[nodiscard]] double total(const std::string& stage) const {
    const obs::Histogram* h = registry_.find_histogram(stage);
    return h == nullptr ? 0.0 : h->sum();
  }

  [[nodiscard]] std::int64_t calls(const std::string& stage) const {
    const obs::Histogram* h = registry_.find_histogram(stage);
    return h == nullptr ? 0 : h->count();
  }

  /// Render a human-readable table of all stages.
  [[nodiscard]] std::string report() const;

  void clear() { registry_.clear(); }

  /// The backing registry (per-stage histograms; exposes JSON export).
  [[nodiscard]] const obs::MetricsRegistry& registry() const {
    return registry_;
  }

 private:
  obs::MetricsRegistry registry_;
};

/// RAII helper: times a scope and records it in a StageTimings on exit.
class ScopedStageTimer {
 public:
  ScopedStageTimer(StageTimings& timings, std::string stage)
      : timings_(timings), stage_(std::move(stage)) {}
  ~ScopedStageTimer() { timings_.add(stage_, timer_.seconds()); }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StageTimings& timings_;
  std::string stage_;
  Timer timer_;
};

}  // namespace mako
