#include "obs/metrics.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace mako::obs {

namespace {

/// bucket_upper_bound's values, computed once: observe() runs on hot paths
/// (kernel.batch_s once per ERI batch) and would otherwise call std::pow up
/// to kBuckets - 1 times per sample.
const std::array<double, Histogram::kBuckets>& upper_bounds() noexcept {
  static const std::array<double, Histogram::kBuckets> table = [] {
    std::array<double, Histogram::kBuckets> t{};
    // 1e-9, 1e-8, ... 1e5; the last bucket (i == kBuckets-1) is unbounded.
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      t[i] = 1e-9 * std::pow(10.0, i);
    }
    return t;
  }();
  return table;
}

}  // namespace

void Histogram::observe(double v) noexcept {
  const std::int64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  if (n == 0) {
    // First sample initializes min/max; racing first samples are then folded
    // in by the CAS loops below, so the net result is still exact.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  detail::atomic_min(min_, v);
  detail::atomic_max(max_, v);

  const std::array<double, kBuckets>& upper = upper_bounds();
  int bucket = kBuckets - 1;
  if (v < upper[kBuckets - 2]) {
    bucket = 0;
    while (bucket < kBuckets - 1 && v >= upper[bucket]) ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::bucket_upper_bound(int i) noexcept {
  return upper_bounds()[i];
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  char line[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(line, sizeof line, "%s\n    \"%s\": %lld",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(c->value()));
    out += line;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    std::snprintf(line, sizeof line, "%s\n    \"%s\": %.9g", first ? "" : ",",
                  name.c_str(), g->value());
    out += line;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::snprintf(line, sizeof line,
                  "%s\n    \"%s\": {\"count\": %lld, \"sum\": %.9g, "
                  "\"mean\": %.9g, \"min\": %.9g, \"max\": %.9g}",
                  first ? "" : ",", name.c_str(),
                  static_cast<long long>(h->count()), h->sum(), h->mean(),
                  h->min(), h->max());
    out += line;
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string MetricsRegistry::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  char line[256];
  if (!counters_.empty()) {
    out += "counter                                    value\n";
    for (const auto& [name, c] : counters_) {
      std::snprintf(line, sizeof line, "%-36s %12lld\n", name.c_str(),
                    static_cast<long long>(c->value()));
      out += line;
    }
  }
  if (!gauges_.empty()) {
    out += "gauge                                      value\n";
    for (const auto& [name, g] : gauges_) {
      std::snprintf(line, sizeof line, "%-36s %12.6g\n", name.c_str(),
                    g->value());
      out += line;
    }
  }
  if (!histograms_.empty()) {
    out += "histogram                            count        sum       mean\n";
    for (const auto& [name, h] : histograms_) {
      std::snprintf(line, sizeof line, "%-32s %9lld %10.4f %10.6f\n",
                    name.c_str(), static_cast<long long>(h->count()), h->sum(),
                    h->mean());
      out += line;
    }
  }
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) names.push_back(name);
  return names;
}

}  // namespace mako::obs
