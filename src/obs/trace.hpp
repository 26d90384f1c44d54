// Thread-safe span tracer emitting Chrome/Perfetto trace-event JSON.
//
// The paper's claims are measured claims — per-stage ERI/Fock breakdowns,
// precision-policy trajectories, comm scaling — so the hot path carries RAII
// trace scopes: KernelMako class batches, GEMM calls, quantize passes, Fock
// digestion shards, DIIS/diagonalization, Communicator collectives.  The
// emitted file loads directly in chrome://tracing or https://ui.perfetto.dev.
//
// Cost model (mirrors MAKO_FAULT_POINT):
//   * MAKO_OBSERVABILITY=OFF — `obs::compiled_in()` is constexpr false, every
//     span constructor is an empty inline function, the optimizer removes the
//     instrumentation entirely.
//   * Compiled in but no tracer started — one relaxed atomic load per scope.
//   * Tracing — two steady_clock reads plus a push into a per-thread buffer
//     (no shared lock on the record path beyond the buffer's own uncontended
//     mutex); buffers are merged only when the trace is serialized.
//
// The per-micro-GEMM and per-quantize-pass categories (kGemm, kQuant) fire
// orders of magnitude more often than everything else and are excluded from
// the default category mask; enable them explicitly (CLI: --trace-all).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mako::obs {

/// True when the observability instrumentation was compiled in
/// (MAKO_OBSERVABILITY=ON, the default).
constexpr bool compiled_in() noexcept {
#if MAKO_OBSERVABILITY
  return true;
#else
  return false;
#endif
}

/// Span categories; the tracer keeps a runtime bitmask of enabled ones.
enum class TraceCat : std::uint32_t {
  kScf = 1u << 0,     ///< SCF driver: iterations, DIIS, diagonalization
  kFock = 1u << 1,    ///< Fock build: screening, digestion shards, reduce
  kKernel = 1u << 2,  ///< KernelMako class batches
  kLinalg = 1u << 3,  ///< eigensolvers and other dense-linalg entry points
  kComm = 1u << 4,    ///< comm collectives (incl. modeled retry time)
  kApp = 1u << 5,     ///< application-level scopes (CLI, engine, benches)
  kGemm = 1u << 6,    ///< every GEMM micro-kernel call (hot; off by default)
  kQuant = 1u << 7,   ///< every quantize/dequantize pass (hot; off by default)
};

/// Category name used in the trace-event "cat" field.
const char* to_string(TraceCat cat) noexcept;

/// One completed span ("ph":"X" duration event in the trace-event format).
struct TraceEvent {
  const char* name = "";  ///< static-storage string (no ownership)
  TraceCat cat = TraceCat::kApp;
  double ts_us = 0.0;   ///< start, microseconds since Tracer::start()
  double dur_us = 0.0;  ///< duration in microseconds
  std::uint32_t tid = 0;
  std::string args;  ///< preformatted `"key":value` pairs (no braces), or ""
};

/// Process-wide span collector.  start()/stop() bracket a tracing session;
/// spans recorded outside a session cost one relaxed load and vanish.
class Tracer {
 public:
  /// Everything except the per-micro-GEMM / per-quantize-pass firehoses.
  static constexpr std::uint32_t kDefaultMask =
      ~(static_cast<std::uint32_t>(TraceCat::kGemm) |
        static_cast<std::uint32_t>(TraceCat::kQuant));
  static constexpr std::uint32_t kAllMask = 0xFFFFFFFFu;

  /// Leaky singleton: never destroyed, safe to touch from static teardown
  /// (e.g. the global thread pool's worker join).
  static Tracer& instance();

  /// Begins a session, clearing previously collected events.  A no-op when
  /// the instrumentation is compiled out.
  void start(std::uint32_t category_mask = kDefaultMask);
  /// Ends the session; collected events stay available for serialization.
  void stop();

  [[nodiscard]] bool active() const noexcept {
    return mask_.load(std::memory_order_relaxed) != 0;
  }
  [[nodiscard]] bool enabled(TraceCat cat) const noexcept {
    if constexpr (!compiled_in()) return false;
    return (mask_.load(std::memory_order_relaxed) &
            static_cast<std::uint32_t>(cat)) != 0;
  }

  /// Microseconds since start() on the steady clock.
  [[nodiscard]] double now_us() const noexcept;

  /// Records a completed span into the calling thread's buffer.
  void record(const char* name, TraceCat cat, double ts_us, double dur_us,
              std::string args = {});

  /// Total events across all thread buffers.
  [[nodiscard]] std::size_t event_count() const;

  /// Serializes every collected event as a Chrome trace-event JSON document
  /// ({"traceEvents":[...]}), loadable in Perfetto.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Drops all collected events (buffers stay registered: outstanding
  /// thread-local handles remain valid).
  void clear();

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::mutex mutex;  ///< guards events against a concurrent to_json()
    std::vector<TraceEvent> events;
  };

  Tracer() = default;
  ThreadBuffer& local_buffer();

  mutable std::mutex registry_mutex_;  ///< guards buffers_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::atomic<std::uint32_t> mask_{0};
  std::atomic<std::uint32_t> next_tid_{0};
  std::chrono::steady_clock::time_point epoch_{};
};

/// RAII span: opens on construction if the tracer has the category enabled,
/// records a "ph":"X" event on destruction.  Inactive spans are free.
class TraceSpan {
 public:
  TraceSpan(TraceCat cat, const char* name) noexcept {
    if constexpr (compiled_in()) {
      Tracer& t = Tracer::instance();
      if (t.enabled(cat)) {
        cat_ = cat;
        name_ = name;
        start_us_ = t.now_us();
        active_ = true;
      }
    }
  }
  ~TraceSpan() { end(); }

  /// Records the span now instead of at scope exit (idempotent).  Useful for
  /// bracketing a region mid-function without introducing a nesting level.
  void end() noexcept {
    if constexpr (compiled_in()) {
      if (active_) {
        active_ = false;
        Tracer& t = Tracer::instance();
        t.record(name_, cat_, start_us_, t.now_us() - start_us_,
                 std::move(args_));
      }
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True while the span is recording; use to skip argument formatting.
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Attaches preformatted `"key":value` JSON pairs (no surrounding braces);
  /// ignored on inactive spans.
  void set_args(std::string args) {
    if (active_) args_ = std::move(args);
  }

 private:
  const char* name_ = "";
  std::string args_;
  double start_us_ = 0.0;
  TraceCat cat_ = TraceCat::kApp;
  bool active_ = false;
};

}  // namespace mako::obs

/// Scope macro used by the hot-path instrumentation.  Compiles away entirely
/// with MAKO_OBSERVABILITY=OFF (like MAKO_FAULT_POINT).
#if MAKO_OBSERVABILITY
#define MAKO_TRACE_CAT_(a, b) a##b
#define MAKO_TRACE_CAT(a, b) MAKO_TRACE_CAT_(a, b)
#define MAKO_TRACE_SCOPE(cat, name) \
  ::mako::obs::TraceSpan MAKO_TRACE_CAT(mako_trace_span_, __LINE__)(cat, name)
#else
#define MAKO_TRACE_SCOPE(cat, name) static_cast<void>(0)
#endif
