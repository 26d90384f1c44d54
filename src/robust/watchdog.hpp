// Liveness watchdog over the worker pool.
//
// A wedged run — a worker stuck in a pathological kernel or a deadlocked
// dependency inside a parallel region — looks identical to a slow run from
// the outside.  The watchdog makes the difference observable: every
// ThreadPool::parallel_for chunk stamps a per-worker heartbeat, and a
// monitor thread checks that *some* heartbeat advanced within the stall
// window whenever a parallel region is active.  A violation records a
// FaultKind::kWedged audit event, bumps `robust.watchdog_stalls`, and
// logs — it does not kill the run (the deadline/cancellation machinery in
// cancel.hpp is the enforcement arm; the watchdog is the detection arm).
// The deadline is cooperative: a chunk that never polls its token cannot be
// stopped by it, and that is the hang only the watchdog reports.  Work
// outside parallel regions (checkpoint writes, diagonalization on the
// driver thread) is not watched: the monitor ignores an idle pool.
//
// Cost: one relaxed atomic store per chunk (a chunk is thousands-to-millions
// of loop iterations), one atomic increment/decrement per parallel_for.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "robust/status.hpp"

namespace mako {

/// One detected no-progress episode.
struct WatchdogEvent {
  double stalled_seconds = 0.0;  ///< how long progress had been absent
  int workers_registered = 0;    ///< heartbeat slots seen so far
  std::int64_t at_ns = 0;        ///< steady-clock timestamp of detection
};

/// Process-wide heartbeat registry + monitor.  The worker-side hooks
/// (enter_region / beat / leave_region) are always armed and cheap; the
/// monitor thread only exists between start() and stop().
class Watchdog {
 public:
  static Watchdog& instance();

  // --- worker side (called by ThreadPool) --------------------------------
  void enter_region() noexcept;
  void leave_region() noexcept;
  /// Stamp this thread's heartbeat slot (lazily registered, max 256 slots;
  /// overflow threads share the last slot rather than failing).
  void beat() noexcept;

  // --- monitor side ------------------------------------------------------
  /// Start the monitor thread with the given stall window.  Idempotent:
  /// a second start() only tightens/loosens the window.
  void start(double stall_seconds);
  void stop();
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t beats() const noexcept {
    return beat_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stalls_detected() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<WatchdogEvent> events() const;
  /// kWedged fault describing the most recent stall; ok() when none.
  [[nodiscard]] Status last_status() const;
  void reset_events();

 private:
  Watchdog() = default;
  void monitor_loop();

  static constexpr std::size_t kMaxSlots = 256;

  std::atomic<std::int64_t> slots_[kMaxSlots] = {};
  std::atomic<std::size_t> nslots_{0};
  std::atomic<std::int64_t> last_activity_ns_{0};
  std::atomic<int> active_regions_{0};
  std::atomic<std::uint64_t> beat_count_{0};
  std::atomic<std::uint64_t> stalls_{0};

  std::atomic<bool> running_{false};
  std::atomic<double> stall_seconds_{5.0};
  std::thread monitor_;
  mutable std::mutex mutex_;  ///< guards monitor_ lifecycle + events_
  std::vector<WatchdogEvent> events_;
  Status last_status_;
};

/// RAII region marker used by ThreadPool::parallel_for.
class WatchdogRegion {
 public:
  WatchdogRegion() noexcept { Watchdog::instance().enter_region(); }
  ~WatchdogRegion() { Watchdog::instance().leave_region(); }
  WatchdogRegion(const WatchdogRegion&) = delete;
  WatchdogRegion& operator=(const WatchdogRegion&) = delete;
};

/// RAII monitor scope: starts the watchdog if (and only if) it was not
/// already running, and stops it on exit only if this scope started it —
/// nested runs share the outer monitor.
class ScopedWatchdog {
 public:
  explicit ScopedWatchdog(double stall_seconds);
  ~ScopedWatchdog();
  ScopedWatchdog(const ScopedWatchdog&) = delete;
  ScopedWatchdog& operator=(const ScopedWatchdog&) = delete;

 private:
  bool owns_ = false;
};

}  // namespace mako
