#include "parallel/communicator.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/fault_injector.hpp"
#include "util/log.hpp"

namespace mako {
namespace {

/// Verified-delivery retry policy: one try plus up to three resends, with
/// exponential backoff from 5 us folded into the modeled time.
constexpr int kMaxAttempts = 4;
constexpr double kBackoffBaseSeconds = 5e-6;
constexpr double kBackoffMultiplier = 2.0;

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

[[noreturn]] void throw_bad_ranks(int ranks, const char* source) {
  char msg[256];
  std::snprintf(msg, sizeof msg,
                "%s: rank count %d is unsupported; the owner-computes "
                "partition uses %d fixed slices, so ranks must be a power of "
                "two in [1, %d] (1, 2, 4, 8, 16)",
                source, ranks, kMaxCommRanks, kMaxCommRanks);
  throw InputError(FaultKind::kInvalidInput, msg);
}

/// Trace arguments and metrics of one finished collective.
void record_collective(obs::TraceSpan& span, double seconds,
                       std::size_t bytes, std::uint64_t retries) {
  if (span.active()) {
    char args[96];
    std::snprintf(args, sizeof args,
                  "\"modeled_s\":%.3e,\"bytes\":%zu,\"retries\":%llu",
                  seconds, bytes, static_cast<unsigned long long>(retries));
    span.set_args(args);
  }
  MAKO_METRIC_COUNT("comm.retries", static_cast<std::int64_t>(retries));
  MAKO_METRIC_COUNT("comm.bytes", static_cast<std::int64_t>(bytes));
  MAKO_METRIC_OBSERVE("comm.modeled_s", seconds);
}

// Pairwise level-by-level fold; an odd trailing element carries upward
// unchanged.  add(i, i + stride) keeps the lower-index subtree as the left
// operand at every level, which is the association every caller
// (rank-local slice folds, the cross-rank allreduce, the XC slices) must
// share.
template <typename Add>
void pinned_tree_fold(std::size_t n, const Add& add) {
  for (std::size_t stride = 1; stride < n; stride *= 2) {
    for (std::size_t i = 0; i + stride < n; i += 2 * stride) {
      add(i, i + stride);
    }
  }
}

}  // namespace

int resolve_ranks(int requested) {
  int ranks = requested;
  const char* source = "Communicator";
  if (ranks == 0) {
    const char* env = std::getenv("MAKO_RANKS");
    if (env == nullptr || *env == '\0') return 1;
    source = "Communicator: $MAKO_RANKS";
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0') {
      char msg[192];
      std::snprintf(msg, sizeof msg,
                    "Communicator: $MAKO_RANKS='%s' is not an integer; "
                    "expected a power of two in [1, %d]",
                    env, kMaxCommRanks);
      throw InputError(FaultKind::kInvalidInput, msg);
    }
    ranks = static_cast<int>(parsed);
  }
  if (!is_pow2(ranks) || ranks > kMaxCommRanks) {
    throw_bad_ranks(ranks, source);
  }
  return ranks;
}

std::uint64_t payload_checksum(const MatrixD& m) noexcept {
  // FNV-1a over the raw bytes: deterministic and sensitive to every bit
  // pattern, including NaN payloads that compare unequal to themselves.
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const std::size_t n = m.size() * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

void pinned_tree_sum(MatrixD* const* parts, std::size_t n) {
  pinned_tree_fold(n, [&](std::size_t i, std::size_t j) {
    *parts[i] += *parts[j];
  });
}

void pinned_tree_sum(double* parts, std::size_t n) {
  pinned_tree_fold(n,
                   [&](std::size_t i, std::size_t j) { parts[i] += parts[j]; });
}

Communicator::Communicator(int ranks) : size_(resolve_ranks(ranks)) {
  if (size_ > 1) {
    log_info("Communicator: %d in-process ranks", size_);
  }
}

bool Communicator::deliver_verified(const char* site, MatrixD& payload,
                                    int attempt, double& time_s) {
  const std::uint64_t expect = payload_checksum(payload);
  bool dropped = false;
  if (MAKO_FAULT_POINT(site)) {
    const FaultSpec spec = FaultInjector::instance().armed_spec(site);
    if (spec.mode == FaultMode::kDrop) {
      dropped = true;  // message lost in flight; payload bytes never arrive
      ++stats_.dropped;
      MAKO_METRIC_COUNT("comm.dropped", 1);
    } else {
      FaultInjector::instance().corrupt(site, payload.data(), payload.size());
    }
  }
  if (!dropped && payload_checksum(payload) == expect) return true;
  // Failed delivery: charge exponential backoff before the resend.
  time_s += kBackoffBaseSeconds *
            std::pow(kBackoffMultiplier, static_cast<double>(attempt));
  return false;
}

double Communicator::allreduce_sum(std::vector<MatrixD>& rank_partials) {
  assert(static_cast<int>(rank_partials.size()) == size_);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.allreduce_calls;
  last_status_ = Status::ok();
  if (size_ == 1) return 0.0;  // the sum of one part is itself

  obs::TraceSpan span(obs::TraceCat::kComm, "simcomm.allreduce");
  MAKO_METRIC_COUNT("comm.allreduce_calls", 1);
  const std::size_t n = static_cast<std::size_t>(size_);
  const std::size_t bytes = rank_partials[0].size() * sizeof(double);
  const std::uint64_t retries_before = stats_.retries;
  double t = 0.0;
  for (int attempt = 0;; ++attempt) {
    // Re-reduce from the pristine per-rank inputs each attempt; the result
    // is the in-flight payload that delivery may corrupt or drop.  The fold
    // uses the pinned pairwise tree so the cross-rank association composes
    // with each rank's local fold into one fixed reduction tree.
    tree_.resize(n);
    MatrixD* parts[kMaxCommRanks];
    for (std::size_t r = 0; r < n; ++r) {
      tree_[r] = rank_partials[r];
      parts[r] = &tree_[r];
    }
    pinned_tree_sum(parts, n);
    MatrixD& sum = tree_[0];
    t += cluster_.allreduce_seconds(size_, bytes);
    if (deliver_verified("simcomm.allreduce", sum, attempt, t)) {
      for (MatrixD& p : rank_partials) p = sum;
      break;
    }
    if (attempt + 1 >= kMaxAttempts) {
      last_status_ = Status::fault(
          FaultKind::kCommCorruption,
          "simcomm: allreduce failed checksum verification after retry "
          "budget exhausted; input buffers left untouched");
      log_error("simcomm: allreduce gave up after %d attempts", attempt + 1);
      break;
    }
    ++stats_.retries;
    log_warn("simcomm: allreduce checksum/delivery failure on attempt %d; "
             "resending with backoff",
             attempt + 1);
  }
  stats_.bytes += bytes;
  stats_.modeled_seconds += t;
  record_collective(span, t, bytes, stats_.retries - retries_before);
  return t;
}

double Communicator::broadcast(MatrixD& payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.broadcast_calls;
  last_status_ = Status::ok();
  if (size_ == 1) return 0.0;

  obs::TraceSpan span(obs::TraceCat::kComm, "simcomm.broadcast");
  MAKO_METRIC_COUNT("comm.broadcast_calls", 1);
  const std::size_t bytes = payload.size() * sizeof(double);
  const std::uint64_t retries_before = stats_.retries;
  double t = 0.0;
  for (int attempt = 0;; ++attempt) {
    in_flight_ = payload;
    t += cluster_.broadcast_seconds(size_, bytes);
    if (deliver_verified("simcomm.broadcast", in_flight_, attempt, t)) break;
    if (attempt + 1 >= kMaxAttempts) {
      last_status_ = Status::fault(
          FaultKind::kCommCorruption,
          "simcomm: broadcast failed checksum verification after retry "
          "budget exhausted; non-root ranks did not receive the payload");
      log_error("simcomm: broadcast gave up after %d attempts", attempt + 1);
      break;
    }
    ++stats_.retries;
    log_warn("simcomm: broadcast checksum/delivery failure on attempt %d; "
             "resending with backoff",
             attempt + 1);
  }
  stats_.bytes += bytes;
  stats_.modeled_seconds += t;
  record_collective(span, t, bytes, stats_.retries - retries_before);
  return t;
}

double Communicator::barrier() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.barrier_calls;
  last_status_ = Status::ok();
  // An empty allreduce: two tree sweeps of latency-only hops (0 on 1 rank).
  const double t = cluster_.allreduce_seconds(size_, sizeof(double));
  stats_.modeled_seconds += t;
  return t;
}

CommStats Communicator::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Status Communicator::last_status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_status_;
}

}  // namespace mako
