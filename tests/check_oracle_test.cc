#include <cstdlib>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "check/lane.h"

namespace rlcut {
namespace check {
namespace {

// Restores RLCUT_DEBUG_INVARIANTS on scope exit so tests cannot leak
// configuration into each other.
class ScopedInvariantsEnv {
 public:
  explicit ScopedInvariantsEnv(const char* value) {
    const char* old = std::getenv("RLCUT_DEBUG_INVARIANTS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("RLCUT_DEBUG_INVARIANTS", value, 1);
    } else {
      ::unsetenv("RLCUT_DEBUG_INVARIANTS");
    }
  }
  ~ScopedInvariantsEnv() {
    if (had_old_) {
      ::setenv("RLCUT_DEBUG_INVARIANTS", old_.c_str(), 1);
    } else {
      ::unsetenv("RLCUT_DEBUG_INVARIANTS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

LaneReport RunOracle(uint64_t seed, uint64_t count) {
  const Lane* lane = FindLane("oracle");
  EXPECT_NE(lane, nullptr);
  return lane == nullptr ? LaneReport() : RunLane(*lane, seed, count);
}

TEST(DifferentialOracleTest, AllPresetsAndModelsAgreeBitExactly) {
  // 27 consecutive case seeds cover every (graph kind, topology preset,
  // model) combination, including the outage schedule preset.
  const LaneReport report = RunOracle(5, 27);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_EQ(report.Count("cases"), 27u);
  EXPECT_EQ(report.Count("moves"), 27u * 32u);
  EXPECT_GE(report.Count("cold recomputes"), 27u);
  EXPECT_GE(report.Count("rollbacks"), 1u);
  EXPECT_GE(report.Count("topology updates"), 1u);
  EXPECT_GE(report.Count("invariant checks"), 27u);
  EXPECT_GE(report.Count("legacy evals"), 1u);
}

TEST(DifferentialOracleTest, SoaVsLegacyLaneCoversAThousandMoves) {
  // The SoA bookkeeping rewrite's dedicated lane: >= 1k randomized
  // moves, each committed state compared bit-exactly against the legacy
  // array-of-structs reference evaluator.
  const LaneReport report = RunOracle(33, 32);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_GE(report.Count("moves"), 1000u);
  // Every committed mutation runs the legacy comparison; SetMaster and
  // PlaceEdge moves each count once, MoveMaster moves once as well.
  EXPECT_GE(report.Count("legacy evals"), 1000u);
}

TEST(DifferentialOracleTest, DerivedModelsOnlyAlsoPass) {
  // Seeds 0..17 pick model (seed / 9) % 3 in {hybrid-cut, edge-cut}.
  const LaneReport report = RunOracle(0, 18);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_EQ(report.Count("cases"), 18u);
}

TEST(DifferentialOracleTest, DeterministicForAFixedSeed) {
  const LaneReport a = RunOracle(21, 6);
  const LaneReport b = RunOracle(21, 6);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.failures, b.failures);
}

TEST(DifferentialOracleTest, SummaryMentionsCounts) {
  const Lane* lane = FindLane("oracle");
  ASSERT_NE(lane, nullptr);
  const std::string summary = LaneSummary(*lane, RunLane(*lane, 1, 1));
  EXPECT_EQ(summary.rfind("oracle: 1 cases, 32 moves, ", 0), 0u) << summary;
  EXPECT_NE(summary.find(", 0 failures"), std::string::npos) << summary;
}

TEST(InvariantsEnvTest, DisabledWhenUnsetEmptyOrZero) {
  {
    ScopedInvariantsEnv env(nullptr);
    EXPECT_FALSE(DebugInvariantsEnabled());
    EXPECT_FALSE(ShouldCheckInvariantsAtStep(0));
  }
  {
    ScopedInvariantsEnv env("");
    EXPECT_FALSE(DebugInvariantsEnabled());
  }
  {
    ScopedInvariantsEnv env("0");
    EXPECT_FALSE(DebugInvariantsEnabled());
    EXPECT_FALSE(ShouldCheckInvariantsAtStep(0));
  }
}

TEST(InvariantsEnvTest, EnabledEveryStepForOneOrNonNumeric) {
  {
    ScopedInvariantsEnv env("1");
    EXPECT_TRUE(DebugInvariantsEnabled());
    EXPECT_EQ(DebugInvariantsInterval(), 1);
    EXPECT_TRUE(ShouldCheckInvariantsAtStep(0));
    EXPECT_TRUE(ShouldCheckInvariantsAtStep(7));
  }
  {
    ScopedInvariantsEnv env("on");
    EXPECT_TRUE(DebugInvariantsEnabled());
    EXPECT_EQ(DebugInvariantsInterval(), 1);
    EXPECT_TRUE(ShouldCheckInvariantsAtStep(3));
  }
}

TEST(InvariantsEnvTest, NumericValueSamplesEveryNthStep) {
  ScopedInvariantsEnv env("4");
  EXPECT_TRUE(DebugInvariantsEnabled());
  EXPECT_EQ(DebugInvariantsInterval(), 4);
  EXPECT_TRUE(ShouldCheckInvariantsAtStep(0));
  EXPECT_FALSE(ShouldCheckInvariantsAtStep(1));
  EXPECT_FALSE(ShouldCheckInvariantsAtStep(3));
  EXPECT_TRUE(ShouldCheckInvariantsAtStep(8));
}

}  // namespace
}  // namespace check
}  // namespace rlcut
