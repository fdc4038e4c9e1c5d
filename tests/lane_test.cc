#include "check/lane.h"

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"

namespace rlcut {
namespace check {
namespace {

std::vector<std::string> LaneNames() {
  std::vector<std::string> names;
  for (const Lane& lane : Lanes()) names.push_back(lane.name);
  return names;
}

// Counts that depend on thread timing rather than on the case seed:
// which net faults fire decides each net session's outcome class, and
// chaos and thread-lane fire totals move with the helpers' interleaving
// (how many chunks a helper claims). Pass/fail does not depend on them;
// the thread lane itself fails an armed run that injects no fault.
bool TimingDependent(const std::string& lane, const std::string& count) {
  if (lane == "net") {
    return count != "cases" && count != "kill resyncs" && count != "over tcp";
  }
  return (lane == "chaos" || lane == "thread") && count == "injected fires";
}

class LaneTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Lane& lane() const {
    const Lane* lane = FindLane(GetParam());
    EXPECT_NE(lane, nullptr);
    return *lane;
  }
};

// The ctest entry of every lane: its smoke-tier cases from seed 1.
TEST_P(LaneTest, PassesAtSmokeTier) {
  const LaneReport report = RunLane(lane(), 1, lane().smoke);
  for (const std::string& f : report.failures) ADD_FAILURE() << f;
  EXPECT_EQ(report.Count("cases"), static_cast<uint64_t>(lane().smoke));
}

// A case depends only on its seed: a run of n cases finds exactly the
// failures and counts of the n one-case runs it is made of.
TEST_P(LaneTest, CasesReplayOneByOne) {
  // Seeds 2..4 reach every seed-keyed sub-lane (seed % 2, 3 and 4).
  const LaneReport whole = RunLane(lane(), 2, 3);
  LaneReport parts;
  for (uint64_t seed = 2; seed < 5; ++seed) {
    const LaneReport one = RunLane(lane(), seed, 1);
    for (const auto& [name, value] : one.counts) parts.Add(name, value);
    parts.failures.insert(parts.failures.end(), one.failures.begin(),
                          one.failures.end());
  }
  EXPECT_EQ(whole.failures, parts.failures);
  ASSERT_EQ(whole.counts.size(), parts.counts.size());
  for (size_t i = 0; i < whole.counts.size(); ++i) {
    EXPECT_EQ(whole.counts[i].first, parts.counts[i].first);
    if (!TimingDependent(lane().name, whole.counts[i].first)) {
      EXPECT_EQ(whole.counts[i].second, parts.counts[i].second)
          << whole.counts[i].first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLanes, LaneTest, ::testing::ValuesIn(LaneNames()),
                         [](const auto& info) { return info.param; });

TEST(LaneTableTest, NamesAreUniqueAndFindable) {
  std::set<std::string> seen;
  for (const Lane& lane : Lanes()) {
    EXPECT_TRUE(seen.insert(lane.name).second) << lane.name;
    EXPECT_EQ(FindLane(lane.name), &lane);
    EXPECT_GT(lane.smoke, 0) << lane.name;
    EXPECT_LE(lane.smoke, lane.ci) << lane.name;
    EXPECT_LE(lane.ci, lane.nightly) << lane.name;
  }
  EXPECT_EQ(FindLane("no-such-lane"), nullptr);
}

constexpr uint64_t kBadSeed = 42;

void FailOnBadSeed(uint64_t seed, LaneReport* report) {
  report->Add("probes", 1);
  if (seed == kBadSeed) report->failures.push_back("bad seed");
}

void AlwaysFail(uint64_t /*seed*/, LaneReport* report) {
  report->failures.push_back("always");
}

std::vector<std::string> Lines(std::FILE* file) {
  std::rewind(file);
  std::vector<std::string> lines;
  std::string line;
  for (int c = std::fgetc(file); c != EOF; c = std::fgetc(file)) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  return lines;
}

TEST(RunLaneTest, PrintsOneFailLineWithAReplayCommand) {
  const Lane fake{"fake", 1, 1, 1, FailOnBadSeed};
  std::FILE* log = std::tmpfile();
  ASSERT_NE(log, nullptr);
  const LaneReport report = RunLane(fake, 40, 5, log);
  const std::vector<std::string> lines = Lines(log);
  std::fclose(log);

  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0], "FAIL fake seed=42: bad seed");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], report.failures[0]);
  EXPECT_EQ(LaneSummary(fake, report), "fake: 5 cases, 5 probes, 1 failures");

  // The replay line parses back, with rlcut_audit's flags, to the same
  // lane and seed and a single case.
  const std::string prefix = "  replay: ";
  ASSERT_EQ(lines[1].rfind(prefix, 0), 0u) << lines[1];
  EXPECT_EQ(lines[1].substr(prefix.size()), ReplayCommand(fake, kBadSeed));
  std::istringstream words(lines[1].substr(prefix.size()));
  std::vector<std::string> args;
  for (std::string word; words >> word;) args.push_back(word);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  FlagParser flags;
  flags.DefineString("lane", "all", "");
  flags.DefineString("tier", "smoke", "");
  flags.DefineInt("seed", 1, "");
  flags.DefineInt("count", 0, "");
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(flags.GetString("lane"), "fake");
  EXPECT_EQ(flags.GetInt("seed"), static_cast<int64_t>(kBadSeed));
  EXPECT_EQ(flags.GetInt("count"), 1);
}

TEST(RunLaneTest, StopsAfterSixteenFailures) {
  const Lane fake{"fake", 1, 1, 1, AlwaysFail};
  const LaneReport report = RunLane(fake, 1, 100);
  EXPECT_EQ(report.failures.size(), kMaxLaneFailures);
  EXPECT_EQ(report.Count("cases"), kMaxLaneFailures);
  EXPECT_EQ(report.failures.back(), "FAIL fake seed=16: always");
}

}  // namespace
}  // namespace check
}  // namespace rlcut
