#include <string>

#include <gtest/gtest.h>

#include "check/fuzz.h"
#include "common/status.h"

namespace rlcut {
namespace check {
namespace {

const CorpusCase& FindCase(const std::vector<CorpusCase>& corpus,
                           const std::string& name) {
  for (const CorpusCase& c : corpus) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "corpus case not found: " << name;
  static const CorpusCase kEmpty;
  return kEmpty;
}

class CorpusReplayTest : public ::testing::TestWithParam<LoaderKind> {};

TEST_P(CorpusReplayTest, EveryCaseMatchesItsExpectation) {
  LaneReport report;
  ReplayCorpus(GetParam(), &report);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  // Each corpus mixes accepted and rejected inputs.
  EXPECT_GE(report.Count("accepted"), 2u);
  EXPECT_GE(report.Count("rejected"), 5u);
}

TEST_P(CorpusReplayTest, DeterministicFuzzRunIsClean) {
  LaneReport report;
  for (uint64_t seed = 7; seed < 7 + 150; ++seed) {
    FuzzLoader(GetParam(), seed, &report);
  }
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_EQ(report.Count("accepted") + report.Count("rejected"), 150u);
}

INSTANTIATE_TEST_SUITE_P(AllLoaders, CorpusReplayTest,
                         ::testing::Values(LoaderKind::kCheckpoint,
                                           LoaderKind::kPlan,
                                           LoaderKind::kNetSchedule,
                                           LoaderKind::kRlgGraph,
                                           LoaderKind::kNetFrame,
                                           LoaderKind::kSession),
                         [](const auto& info) {
                           switch (info.param) {
                             case LoaderKind::kCheckpoint:
                               return std::string("Checkpoint");
                             case LoaderKind::kPlan:
                               return std::string("Plan");
                             case LoaderKind::kRlgGraph:
                               return std::string("RlgGraph");
                             case LoaderKind::kNetFrame:
                               return std::string("NetFrame");
                             case LoaderKind::kSession:
                               return std::string("Session");
                             default:
                               return std::string("NetSchedule");
                           }
                         });

// ---- Named allocation-bomb regressions -------------------------------
//
// Each of these inputs declares an element count vastly larger than the
// file that carries it. Pre-hardening, the loaders resized straight to
// the declared count (a multi-GB to multi-PB allocation — OOM or a
// bad_alloc crash); they must instead fail with a clean IoError before
// allocating.

TEST(CheckpointAdversarialTest, HugeHistoryCountRejectedCleanly) {
  const auto corpus = BuildSeedCorpus(LoaderKind::kCheckpoint);
  const CorpusCase& c = FindCase(corpus, "huge-history-count");
  const Status s = RunLoaderOnBytes(LoaderKind::kCheckpoint, c.bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("history count"), std::string::npos)
      << s.message();
}

TEST(CheckpointAdversarialTest, HugeRngCountRejectedCleanly) {
  const auto corpus = BuildSeedCorpus(LoaderKind::kCheckpoint);
  const CorpusCase& c = FindCase(corpus, "huge-rng-count");
  const Status s = RunLoaderOnBytes(LoaderKind::kCheckpoint, c.bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("rng state count"), std::string::npos)
      << s.message();
}

TEST(CheckpointAdversarialTest, HugePayloadSizeRejectedCleanly) {
  const auto corpus = BuildSeedCorpus(LoaderKind::kCheckpoint);
  const CorpusCase& c = FindCase(corpus, "huge-payload-size");
  const Status s = RunLoaderOnBytes(LoaderKind::kCheckpoint, c.bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CheckpointAdversarialTest, AllZeroRngStateRejectedCleanly) {
  // Checksum-valid file whose rng state is all zeros: accepting it
  // would CHECK-abort later inside Rng::SetState on trainer resume.
  const auto corpus = BuildSeedCorpus(LoaderKind::kCheckpoint);
  const CorpusCase& c = FindCase(corpus, "zero-rng-state");
  const Status s = RunLoaderOnBytes(LoaderKind::kCheckpoint, c.bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("all-zero rng state"), std::string::npos)
      << s.message();
}

TEST(PlanAdversarialTest, HugeCountsRejectedCleanly) {
  const auto corpus = BuildSeedCorpus(LoaderKind::kPlan);
  for (const char* name : {"huge-masters-count", "huge-edges-count"}) {
    const CorpusCase& c = FindCase(corpus, name);
    const Status s = RunLoaderOnBytes(LoaderKind::kPlan, c.bytes);
    ASSERT_FALSE(s.ok()) << name;
    EXPECT_EQ(s.code(), StatusCode::kIoError) << name;
    EXPECT_NE(s.message().find("exceeds file size"), std::string::npos)
        << name << ": " << s.message();
  }
}

}  // namespace
}  // namespace check
}  // namespace rlcut
