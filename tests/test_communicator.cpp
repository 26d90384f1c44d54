// Communicator tests: typed rank-count validation, the free single-rank
// identity, pinned-tree allreduce and broadcast semantics over in-process
// ranks, verified delivery under fault injection (retry, drop and
// exhausted-budget accounting), the rank-invariance contract (`--ranks N`
// SCF is bit-identical to `--ranks 1` on every supported rank count), comm
// failures hard-faulting the SCF, and checkpoint topology guarding.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/execution_context.hpp"
#include "parallel/communicator.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"
#include "scf/scf.hpp"

namespace mako {
namespace {

/// Saves and restores MAKO_RANKS around a test that manipulates it (the CI
/// multi-rank leg exports it for the whole suite).
class CommunicatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* v = std::getenv("MAKO_RANKS");
    had_env_ = v != nullptr;
    if (had_env_) saved_env_ = v;
  }
  void TearDown() override {
    if (had_env_) {
      ::setenv("MAKO_RANKS", saved_env_.c_str(), 1);
    } else {
      ::unsetenv("MAKO_RANKS");
    }
    FaultInjector::instance().disarm_all();
  }

  bool had_env_ = false;
  std::string saved_env_;
};

ExecutionContext make_context(int ranks) {
  ExecutionContextOptions opt;
  opt.ranks = ranks;
  return ExecutionContext(opt);
}

TEST_F(CommunicatorTest, ResolveRanksConsultsEnvironmentThenDefaultsToOne) {
  ::unsetenv("MAKO_RANKS");
  EXPECT_EQ(resolve_ranks(0), 1);
  EXPECT_EQ(resolve_ranks(8), 8);
  ::setenv("MAKO_RANKS", "4", 1);
  EXPECT_EQ(resolve_ranks(0), 4);
  EXPECT_EQ(resolve_ranks(2), 2);  // explicit request beats the env
}

TEST_F(CommunicatorTest, RejectsBadRankCountsWithTypedError) {
  for (int bad : {3, 5, 12, 32, -2}) {
    try {
      (void)resolve_ranks(bad);
      FAIL() << "expected InputError for ranks=" << bad;
    } catch (const InputError& e) {
      EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos);
    }
  }
  // Garbage in the environment is a typed error too, not a silent 1; an
  // EMPTY variable counts as unset (the shell-friendly convention).
  for (const char* bad : {"garbage", "8x", "3"}) {
    ::setenv("MAKO_RANKS", bad, 1);
    EXPECT_THROW((void)resolve_ranks(0), InputError) << "MAKO_RANKS=" << bad;
  }
  ::setenv("MAKO_RANKS", "", 1);
  EXPECT_EQ(resolve_ranks(0), 1);
}

TEST_F(CommunicatorTest, UnknownClusterNameRaisesTypedError) {
  try {
    (void)cluster_model_from_name("token-ring");
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
    // Actionable: the message lists the valid names.
    EXPECT_NE(std::string(e.what()).find("single-node"), std::string::npos);
  }
  EXPECT_NO_THROW((void)cluster_model_from_name("default"));
  EXPECT_NO_THROW((void)cluster_model_from_name("single-node"));
  EXPECT_NO_THROW((void)cluster_model_from_name("ethernet"));
}

TEST_F(CommunicatorTest, RejectsUnsupportedSizes) {
  EXPECT_THROW(Communicator(-1), InputError);
  EXPECT_THROW(Communicator(3), InputError);
  EXPECT_THROW(Communicator(2 * kMaxCommRanks), InputError);
  EXPECT_EQ(Communicator(kMaxCommRanks).size(), kMaxCommRanks);
}

TEST_F(CommunicatorTest, SingleRankIsZeroCostIdentity) {
  Communicator comm(1);
  EXPECT_EQ(comm.size(), 1);
  // A single rank never delivers anything, so an armed delivery fault has
  // nothing to fire on.
  FaultSpec fault;
  fault.mode = FaultMode::kNaN;
  fault.max_fires = -1;
  FaultInjector::instance().arm("simcomm.allreduce", fault);
  FaultInjector::instance().arm("simcomm.broadcast", fault);

  std::vector<MatrixD> partials(1, MatrixD(4, 4, 2.5));
  EXPECT_DOUBLE_EQ(comm.allreduce_sum(partials), 0.0);
  EXPECT_DOUBLE_EQ(partials[0](0, 0), 2.5);  // sum of one part is itself
  MatrixD payload(4, 4, 1.0);
  EXPECT_DOUBLE_EQ(comm.broadcast(payload), 0.0);
  EXPECT_DOUBLE_EQ(payload(3, 3), 1.0);
  EXPECT_DOUBLE_EQ(comm.barrier(), 0.0);
  EXPECT_TRUE(comm.last_status().is_ok());
  EXPECT_EQ(FaultInjector::instance().fires("simcomm.allreduce"), 0u);
  EXPECT_EQ(FaultInjector::instance().fires("simcomm.broadcast"), 0u);
  const CommStats s = comm.stats();
  EXPECT_EQ(s.allreduce_calls, 1u);
  EXPECT_EQ(s.broadcast_calls, 1u);
  EXPECT_EQ(s.barrier_calls, 1u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_DOUBLE_EQ(s.modeled_seconds, 0.0);
}

TEST_F(CommunicatorTest, AllreduceSemantics) {
  Communicator comm(4);
  std::vector<MatrixD> bufs(4, MatrixD(2, 2, 0.0));
  for (int r = 0; r < 4; ++r) bufs[r](0, 0) = r + 1.0;
  comm.allreduce_sum(bufs);
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(bufs[r](0, 0), 10.0);
    EXPECT_DOUBLE_EQ(bufs[r](1, 1), 0.0);
  }
}

TEST_F(CommunicatorTest, BroadcastDeliversRootPayloadUnchanged) {
  // In-process ranks share the canonical buffer: after a verified broadcast
  // every rank holds rank 0's payload bit for bit, at the modeled cost.
  Communicator comm(4);
  MatrixD payload(3, 3, 0.0);
  payload(1, 2) = 42.0;
  const MatrixD sent = payload;
  const double t = comm.broadcast(payload);
  EXPECT_TRUE(comm.last_status().is_ok());
  EXPECT_EQ(0, std::memcmp(payload.data(), sent.data(),
                           sent.size() * sizeof(double)));
  EXPECT_DOUBLE_EQ(t, ClusterModel{}.broadcast_seconds(
                          4, sent.size() * sizeof(double)));
  EXPECT_EQ(comm.stats().bytes, sent.size() * sizeof(double));
}

TEST_F(CommunicatorTest, AccumulatesModeledTime) {
  Communicator comm(8);
  std::vector<MatrixD> bufs(8, MatrixD(64, 64, 1.0));
  EXPECT_DOUBLE_EQ(comm.stats().modeled_seconds, 0.0);
  const double t1 = comm.allreduce_sum(bufs);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(comm.stats().modeled_seconds, t1);
  const double t2 = comm.barrier();
  EXPECT_GT(t2, 0.0);
  EXPECT_DOUBLE_EQ(comm.stats().modeled_seconds, t1 + t2);
}

TEST_F(CommunicatorTest, PinnedTreeSumFoldsPairwise) {
  // The canonical order is ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) — verify
  // against an explicitly associated sum with values chosen so a left fold
  // rounds differently.
  std::vector<MatrixD> parts;
  const double vals[8] = {1e16, 1.0, -1e16, 1.0, 3.0, 1e-8, 2.0, -1e-8};
  for (double v : vals) parts.emplace_back(1, 1, v);
  std::vector<MatrixD*> ptrs;
  for (auto& m : parts) ptrs.push_back(&m);
  pinned_tree_sum(ptrs.data(), ptrs.size());
  const double expect = (((1e16 + 1.0) + (-1e16 + 1.0)) +
                         ((3.0 + 1e-8) + (2.0 + -1e-8)));
  EXPECT_EQ(parts[0](0, 0), expect);
}

TEST_F(CommunicatorTest, SimcommAllreduceMatchesPinnedTreeBitForBit) {
  Communicator comm(4);

  // Values whose sum rounds differently under a different association, so
  // this would catch a naive left fold.
  std::vector<MatrixD> partials;
  const double vals[4] = {1e16, 1.0, -1e16, 1.0};
  for (double v : vals) partials.emplace_back(2, 2, v);
  std::vector<MatrixD> expect_parts = partials;
  std::vector<MatrixD*> ptrs;
  for (auto& m : expect_parts) ptrs.push_back(&m);
  pinned_tree_sum(ptrs.data(), ptrs.size());

  const double t = comm.allreduce_sum(partials);
  EXPECT_GT(t, 0.0);  // four ranks move real modeled bytes
  for (const MatrixD& p : partials) {
    EXPECT_EQ(0, std::memcmp(p.data(), expect_parts[0].data(),
                             p.size() * sizeof(double)));
  }
  const CommStats s = comm.stats();
  EXPECT_EQ(s.bytes, partials[0].size() * sizeof(double));
}

TEST_F(CommunicatorTest, FaultInjectedAllreduceRedeliversVerified) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
  }
  Communicator comm(2);

  FaultSpec fault;
  fault.mode = FaultMode::kNaN;
  FaultInjector::instance().arm("simcomm.allreduce", fault);
  std::vector<MatrixD> partials(2, MatrixD(3, 3, 1.5));
  comm.allreduce_sum(partials);

  // One corrupted delivery, one resend, correct verified result.
  EXPECT_TRUE(comm.last_status().is_ok());
  const CommStats s = comm.stats();
  EXPECT_EQ(s.retries, 1u);
  for (const MatrixD& p : partials) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_DOUBLE_EQ(p.data()[i], 3.0);
    }
  }
}

TEST_F(CommunicatorTest, DroppedCounterTracksInFlightLosses) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
  }
  Communicator comm(2);
  std::vector<MatrixD> bufs(2, MatrixD(3, 3, 1.0));
  EXPECT_EQ(comm.stats().dropped, 0u);

  FaultSpec spec;
  spec.mode = FaultMode::kDrop;
  FaultInjector::instance().arm("simcomm.allreduce", spec);
  comm.allreduce_sum(bufs);

  EXPECT_EQ(comm.stats().dropped, 1u);
  EXPECT_EQ(comm.stats().retries, 1u);
  EXPECT_TRUE(comm.last_status().is_ok());
  for (const auto& b : bufs) EXPECT_DOUBLE_EQ(b(0, 0), 2.0);
}

TEST_F(CommunicatorTest, ExhaustedBroadcastRetryBudgetSurfacesFault) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
  }
  Communicator comm(2);
  MatrixD payload(4, 4, 3.0);

  FaultSpec spec;
  spec.mode = FaultMode::kNaN;
  spec.max_fires = -1;  // corrupt every attempt
  FaultInjector::instance().arm("simcomm.broadcast", spec);
  comm.broadcast(payload);

  EXPECT_EQ(comm.last_status().kind(), FaultKind::kCommCorruption);
  EXPECT_EQ(comm.stats().retries, 3u);  // 4 attempts, 3 resends
  // The root payload is never touched; only in-flight copies corrupt.
  EXPECT_DOUBLE_EQ(payload(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(payload(3, 3), 3.0);
}

// --- The tentpole acceptance: rank-count invariance --------------------------

TEST_F(CommunicatorTest, ScfIsBitIdenticalAcrossRankCounts) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions options;

  const ExecutionContext ref_ctx = make_context(1);
  const ScfResult ref = run_scf(w, bs, options, &ref_ctx);
  ASSERT_TRUE(ref.converged);

  for (int ranks : {2, 4, 8}) {
    const ExecutionContext ctx = make_context(ranks);
    const ScfResult r = run_scf(w, bs, options, &ctx);
    // Bit-identical energy and trajectory — EXPECT_EQ on doubles is exact.
    EXPECT_EQ(r.energy, ref.energy) << "ranks=" << ranks;
    EXPECT_EQ(r.iterations, ref.iterations) << "ranks=" << ranks;
    ASSERT_EQ(r.density.size(), ref.density.size());
    EXPECT_EQ(0, std::memcmp(r.density.data(), ref.density.data(),
                             r.density.size() * sizeof(double)))
        << "ranks=" << ranks;
    // Multi-rank runs charge modeled collective time; the energies above
    // prove the charge never leaks into the numbers.
    EXPECT_GT(r.comm_seconds, 0.0) << "ranks=" << ranks;
    EXPECT_GT(r.comm_bytes, 0u) << "ranks=" << ranks;
  }
}

// The same contract on the quantized schedule: the reduced-precision GEMMs
// and the governor's per-iteration routing see the same reduced J/K at every
// rank count, so the trajectory cannot fork.
TEST_F(CommunicatorTest, QuantizedScfIsBitIdenticalAcrossRankCounts) {
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  ScfOptions options;
  options.enable_quantization = true;
  options.precision.start_fp64_threshold = 1e2;  // route everything early

  const auto run = [&](int ranks) {
    const ExecutionContext ctx = make_context(ranks);
    return run_scf(w, bs, options, &ctx);
  };
  const ScfResult ref = run(1);
  ASSERT_TRUE(ref.converged);
  std::int64_t quantized = 0;
  for (const auto& rec : ref.iteration_log) quantized += rec.quartets_quantized;
  ASSERT_GT(quantized, 0) << "the schedule never quantized; nothing tested";

  for (int ranks : {2, 4}) {
    const ScfResult r = run(ranks);
    EXPECT_EQ(r.energy, ref.energy) << "ranks=" << ranks;
    EXPECT_EQ(r.iterations, ref.iterations) << "ranks=" << ranks;
    ASSERT_EQ(r.density.size(), ref.density.size());
    EXPECT_EQ(0, std::memcmp(r.density.data(), ref.density.data(),
                             r.density.size() * sizeof(double)))
        << "ranks=" << ranks;
  }
}

TEST_F(CommunicatorTest, ExhaustedAllreduceRetryBudgetHardFaultsTheScf) {
  if (!FaultInjector::compiled_in()) {
    GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
  }
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");
  const ExecutionContext ctx = make_context(2);

  FaultSpec fault;
  fault.mode = FaultMode::kNaN;
  fault.max_fires = -1;  // corrupt every delivery attempt
  FaultInjector::instance().arm("simcomm.allreduce", fault);
  const ScfResult r = run_scf(w, bs, {}, &ctx);
  FaultInjector::instance().disarm_all();

  // A partial J is symmetric and finite, so no numeric sentinel fires; the
  // comm status must carry the fault into the abort path on its own.
  EXPECT_EQ(r.health, Health::kFault);
  EXPECT_EQ(r.status.kind(), FaultKind::kCommCorruption);
  EXPECT_FALSE(r.converged);
}

TEST_F(CommunicatorTest, CheckpointWrittenUnderOtherTopologyIsRefused) {
  const std::string path =
      "./ckpt_comm_test." + std::to_string(::getpid());
  const Molecule w = make_water();
  const BasisSet bs(w, "sto-3g");

  ScfOptions write_opt;
  write_opt.fixed_iterations = 2;
  write_opt.durability.checkpoint_path = path;
  const ExecutionContext ctx1 = make_context(1);
  (void)run_scf(w, bs, write_opt, &ctx1);

  // Identical trajectory-shaping options: only the rank topology differs,
  // so the refusal below is attributable to the topology alone.
  ScfOptions restore_opt = write_opt;
  restore_opt.durability.checkpoint_path.clear();
  restore_opt.durability.restore_path = path;
  const ExecutionContext ctx4 = make_context(4);
  try {
    (void)run_scf(w, bs, restore_opt, &ctx4);
    FAIL() << "expected InputError: rank topology is part of the fingerprint";
  } catch (const InputError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kCheckpointMismatch);
  }

  // Same topology restores fine — the refusal above is the mismatch, not
  // some general breakage of durable multi-rank runs.
  const ExecutionContext ctx1b = make_context(1);
  EXPECT_NO_THROW((void)run_scf(w, bs, restore_opt, &ctx1b));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mako
