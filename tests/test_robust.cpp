// Unit tests for the resilience subsystem: the fault taxonomy, the
// numerical-health audits, and the deterministic fault-injection harness.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "robust/audit.hpp"
#include "robust/fault_injector.hpp"
#include "robust/status.hpp"

namespace mako {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::compiled_in()) {
      GTEST_SKIP() << "built with MAKO_FAULT_INJECTION=OFF";
    }
  }
  void TearDown() override { FaultInjector::instance().disarm_all(); }
};

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.kind(), FaultKind::kNone);
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, FaultCarriesKindAndMessage) {
  const Status s = Status::fault(FaultKind::kNonFinite, "NaN in J");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.kind(), FaultKind::kNonFinite);
  EXPECT_EQ(s.message(), "NaN in J");
}

TEST(StatusTest, FaultBitsAreDistinct) {
  EXPECT_EQ(fault_bit(FaultKind::kNone), 0u);
  std::uint32_t seen = 0;
  for (auto k : {FaultKind::kNonFinite, FaultKind::kAsymmetry,
                 FaultKind::kEigenDisorder, FaultKind::kOrthonormalityLoss,
                 FaultKind::kDomainError, FaultKind::kDivergence,
                 FaultKind::kOscillation, FaultKind::kStagnation,
                 FaultKind::kCommCorruption,
                 FaultKind::kIncrementalDrift, FaultKind::kInvalidInput}) {
    const std::uint32_t bit = fault_bit(k);
    EXPECT_NE(bit, 0u);
    EXPECT_EQ(seen & bit, 0u) << "bit collision for " << to_string(k);
    seen |= bit;
  }
}

// Fault and recovery values are mask bit positions and are stored in
// checkpointed recovery logs, so retiring an enumerator must not shift them.
TEST(StatusTest, EnumeratorValuesAreStable) {
  EXPECT_EQ(static_cast<std::uint32_t>(FaultKind::kStagnation), 8u);
  EXPECT_EQ(static_cast<std::uint32_t>(FaultKind::kCommCorruption), 10u);
  EXPECT_EQ(static_cast<std::uint32_t>(FaultKind::kCheckpointError), 18u);
  EXPECT_EQ(static_cast<std::uint32_t>(RecoveryAction::kPrecisionEscalation),
            3u);
  EXPECT_EQ(static_cast<std::uint32_t>(RecoveryAction::kFockRebuild), 5u);
  EXPECT_EQ(static_cast<std::uint32_t>(RecoveryAction::kAbort), 7u);
}

TEST(StatusTest, ToStringCoversEverything) {
  EXPECT_STREQ(to_string(FaultKind::kNonFinite), "non-finite");
  EXPECT_STREQ(to_string(RecoveryAction::kPrecisionEscalation),
               "precision-escalation");
}

TEST(StatusTest, InputErrorIsInvalidArgument) {
  const InputError e(FaultKind::kInvalidInput, "bad charge");
  EXPECT_EQ(e.kind(), FaultKind::kInvalidInput);
  const std::invalid_argument& base = e;  // must remain catchable as such
  EXPECT_STREQ(base.what(), "bad charge");
}

TEST(AuditTest, FiniteScanDetectsNaNAndInf) {
  MatrixD m(4, 4, 1.0);
  EXPECT_TRUE(all_finite(m));
  EXPECT_TRUE(audit_finite(m, "M").is_ok());
  m(2, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(all_finite(m));
  EXPECT_EQ(audit_finite(m, "M").kind(), FaultKind::kNonFinite);
  m(2, 3) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(all_finite(m));
}

TEST(AuditTest, SymmetryAudit) {
  MatrixD m(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      m(i, j) = static_cast<double>(i + j);
    }
  }
  EXPECT_TRUE(audit_symmetry(m, "M").is_ok());
  m(0, 2) += 1e-6;
  EXPECT_EQ(audit_symmetry(m, "M", 1e-10).kind(), FaultKind::kAsymmetry);
  // A loose tolerance accepts the same skew.
  EXPECT_TRUE(audit_symmetry(m, "M", 1e-3).is_ok());
}

TEST(AuditTest, EigenAuditCatchesDisorderAndOrthoLoss) {
  MatrixD a(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) a(i, i) = static_cast<double>(i + 1);
  EigenResult es = eigh(a);
  EXPECT_TRUE(audit_eigen(es, "diag").is_ok());

  EigenResult bad = es;
  std::swap(bad.eigenvalues[0], bad.eigenvalues[3]);
  EXPECT_EQ(audit_eigen(bad, "diag").kind(), FaultKind::kEigenDisorder);

  EigenResult skew = es;
  skew.eigenvectors(0, 0) += 0.5;
  EXPECT_EQ(audit_eigen(skew, "diag").kind(),
            FaultKind::kOrthonormalityLoss);
}

TEST(AuditTest, DomainFaultCounterAdvances) {
  const std::uint64_t before = domain_fault_count();
  record_domain_fault();
  record_domain_fault();
  EXPECT_EQ(domain_fault_count(), before + 2);
}

TEST_F(FaultInjectorTest, CompiledInForDefaultBuilds) {
  // MAKO_FAULT_INJECTION defaults ON so the ladder tests exercise real
  // injection; OFF builds (where sites compile to `false`) skip this suite.
  EXPECT_TRUE(FaultInjector::compiled_in());
}

TEST_F(FaultInjectorTest, UnarmedSiteNeverFires) {
  auto& fi = FaultInjector::instance();
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.should_fire("test.site"));
  EXPECT_EQ(fi.fires("test.site"), 0u);
}

TEST_F(FaultInjectorTest, TriggerAfterAndMaxFires) {
  auto& fi = FaultInjector::instance();
  FaultSpec spec;
  spec.trigger_after = 2;
  spec.max_fires = 2;
  fi.arm("test.site", spec);
  EXPECT_TRUE(fi.armed());
  // Two skipped passes, two fires, then exhausted.
  EXPECT_FALSE(fi.should_fire("test.site"));
  EXPECT_FALSE(fi.should_fire("test.site"));
  EXPECT_TRUE(fi.should_fire("test.site"));
  EXPECT_TRUE(fi.should_fire("test.site"));
  EXPECT_FALSE(fi.should_fire("test.site"));
  EXPECT_EQ(fi.fires("test.site"), 2u);
  EXPECT_EQ(fi.passes("test.site"), 5u);
}

TEST_F(FaultInjectorTest, DisarmStopsFiring) {
  auto& fi = FaultInjector::instance();
  FaultSpec spec;
  spec.max_fires = -1;
  fi.arm("test.site", spec);
  EXPECT_TRUE(fi.should_fire("test.site"));
  fi.disarm("test.site");
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.should_fire("test.site"));
}

TEST_F(FaultInjectorTest, CorruptionIsDeterministic) {
  auto& fi = FaultInjector::instance();
  FaultSpec spec;
  spec.seed = 42;
  spec.max_fires = -1;
  fi.arm("test.site", spec);

  std::vector<double> a(100, 1.0);
  ASSERT_TRUE(fi.should_fire("test.site"));
  const std::size_t idx1 = fi.corrupt("test.site", a.data(), a.size());
  EXPECT_TRUE(std::isnan(a[idx1]));

  // Re-arming with the same seed reproduces the same element choice.
  fi.disarm("test.site");
  fi.arm("test.site", spec);
  std::vector<double> b(100, 1.0);
  ASSERT_TRUE(fi.should_fire("test.site"));
  const std::size_t idx2 = fi.corrupt("test.site", b.data(), b.size());
  EXPECT_EQ(idx1, idx2);
}

TEST_F(FaultInjectorTest, ScaleModePerturbsInsteadOfPoisoning) {
  auto& fi = FaultInjector::instance();
  FaultSpec spec;
  spec.mode = FaultMode::kScale;
  spec.magnitude = 0.5;
  fi.arm("test.site", spec);
  std::vector<double> a(10, 2.0);
  ASSERT_TRUE(fi.should_fire("test.site"));
  const std::size_t idx = fi.corrupt("test.site", a.data(), a.size());
  EXPECT_DOUBLE_EQ(a[idx], 3.0);  // 2.0 * (1 + 0.5)
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != idx) {
      EXPECT_DOUBLE_EQ(a[i], 2.0);
    }
  }
}

TEST_F(FaultInjectorTest, FloatOverloadCorrupts) {
  auto& fi = FaultInjector::instance();
  fi.arm("test.site");
  std::vector<float> a(16, 1.0f);
  ASSERT_TRUE(fi.should_fire("test.site"));
  const std::size_t idx = fi.corrupt("test.site", a.data(), a.size());
  EXPECT_TRUE(std::isnan(a[idx]));
}

}  // namespace
}  // namespace mako
