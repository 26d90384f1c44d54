// Deterministic, seeded fault-injection harness.
//
// Every recovery rung of the SCF resilience ladder is exercised by tests
// rather than hoped-for: named injection sites in the hot paths (kernelmako's
// quantized E-operand cache, the Fock plan and J digestion, the SCF density,
// Communicator collectives) corrupt data on demand, reproducibly.
//
// Site naming convention: "<subsystem>.<what>", e.g.
//   kernelmako.quant_e_tile   corrupt the quantized bra E-operand cache
//   fock.plan_build           corrupt the Schwarz bounds of a new Fock plan
//   fock.route                corrupt the per-block density maxima of a build
//   fock.j_poison             corrupt one J entry after a quantized build
//   scf.incremental_drift     bias the incremental Fock delta contribution
//   scf.density_perturb       symmetric perturbation of the next density
//   simcomm.allreduce         corrupt/drop an allreduce payload
//   simcomm.broadcast         corrupt/drop a broadcast payload
//
// Hot-path cost: sites are wrapped in MAKO_FAULT_POINT, which compiles to the
// constant `false` (dead code, fully eliminated) when MAKO_FAULT_INJECTION is
// off, and to a single relaxed atomic load + predicted-not-taken branch when
// on but nothing is armed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mako {

/// How an armed site corrupts its target.
enum class FaultMode {
  kNaN,    ///< overwrite the chosen element with a quiet NaN
  kScale,  ///< multiply the chosen element by (1 + magnitude)
  kDrop,   ///< deliver nothing (collectives: modeled message loss)
};

/// Arming parameters of one injection site.
struct FaultSpec {
  FaultMode mode = FaultMode::kNaN;
  std::uint64_t seed = 0x6d616b6f;  ///< "mako"; drives element selection
  int trigger_after = 0;            ///< passes to skip before the first fire
  int max_fires = 1;                ///< -1 = fire on every pass once triggered
  double magnitude = 1.0;           ///< relative perturbation for kScale
};

/// Process-wide registry of armed injection sites.  All methods are
/// thread-safe (sites are hit from the Fock digestion thread pool).
class FaultInjector {
 public:
  static FaultInjector& instance();

  void arm(const std::string& site, FaultSpec spec = {});
  void disarm(const std::string& site);
  void disarm_all();

  /// Fast gate: true iff at least one site is armed.
  [[nodiscard]] bool armed() const noexcept {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Counts one pass through `site`; returns true if the site fires.
  bool should_fire(const char* site);

  /// Spec of an armed site (defaults if not armed); call after should_fire.
  [[nodiscard]] FaultSpec armed_spec(const char* site) const;

  /// Deterministically corrupts one element of `data` according to the
  /// site's spec (seed + fire count select the element).  Returns the index.
  std::size_t corrupt(const char* site, double* data, std::size_t n);
  std::size_t corrupt(const char* site, float* data, std::size_t n);

  [[nodiscard]] std::uint64_t fires(const std::string& site) const;
  [[nodiscard]] std::uint64_t passes(const std::string& site) const;

  /// Whether injection sites were compiled in at all.
  static constexpr bool compiled_in() noexcept {
#if MAKO_FAULT_INJECTION
    return true;
#else
    return false;
#endif
  }

 private:
  FaultInjector() = default;

  std::atomic<int> armed_count_{0};
};

}  // namespace mako

#if MAKO_FAULT_INJECTION
#define MAKO_FAULT_POINT(site)                  \
  (::mako::FaultInjector::instance().armed() && \
   ::mako::FaultInjector::instance().should_fire(site))
#else
#define MAKO_FAULT_POINT(site) false
#endif
