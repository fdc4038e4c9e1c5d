#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/byte_io.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_writer.h"
#include "common/thread_pool.h"

namespace rlcut {
namespace {

// ---- ByteWriter / ByteReader -------------------------------------------

TEST(ByteIoTest, VectorRoundTripIncludingEmpty) {
  ByteWriter writer;
  writer.WriteVector(std::vector<int32_t>{});
  writer.WriteVector(std::vector<int32_t>{7, -1});
  writer.WriteVector(std::vector<double>{});
  ByteReader reader(writer.bytes());
  // Default-constructed targets: data() is null, the case memcpy must
  // never see.
  std::vector<int32_t> empty;
  std::vector<int32_t> pair;
  std::vector<double> empty_doubles;
  ASSERT_TRUE(reader.ReadVector(&empty));
  ASSERT_TRUE(reader.ReadVector(&pair));
  ASSERT_TRUE(reader.ReadVector(&empty_doubles));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(pair, (std::vector<int32_t>{7, -1}));
  EXPECT_TRUE(empty_doubles.empty());
}

// ---- Status / Result ---------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad theta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad theta");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status Inner(bool fail) {
  if (fail) return Status::IoError("inner failed");
  return Status::Ok();
}

Status Outer(bool fail) {
  RLCUT_RETURN_IF_ERROR(Inner(fail));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Outer(false).ok());
  EXPECT_EQ(Outer(true).code(), StatusCode::kIoError);
}

// ---- Rng ----------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.75, 0.02);
}

TEST(RngTest, SampleDiscreteAllZeroFallsBackToUniform) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.SampleDiscrete(weights));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(19);
  const uint64_t n = 1000;
  int small = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.Zipf(n, 2.0);
    ASSERT_LT(x, n);
    if (x < 10) ++small;
  }
  // Zipf(2) concentrates the bulk of its mass on the first few values.
  EXPECT_GT(small, 7000);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---- FlagParser ----------------------------------------------------------

TEST(FlagParserTest, ParsesAllTypes) {
  FlagParser flags;
  flags.DefineInt("n", 5, "count");
  flags.DefineDouble("rate", 0.5, "rate");
  flags.DefineBool("verbose", false, "verbosity");
  flags.DefineString("graph", "LJ", "dataset");
  const char* argv[] = {"prog", "--n=10", "--rate", "0.25", "--verbose",
                        "--graph=TW"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("n"), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_EQ(flags.GetString("graph"), "TW");
}

TEST(FlagParserTest, RejectsUnknownFlag) {
  FlagParser flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--unknown=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagParserTest, RejectsBadValue) {
  FlagParser flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagParserTest, HelpRequested) {
  FlagParser flags;
  flags.DefineInt("n", 5, "count");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage("prog").find("--n"), std::string::npos);
}

TEST(FlagParserTest, DefaultsSurviveNoArgs) {
  FlagParser flags;
  flags.DefineString("graph", "LJ", "dataset");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetString("graph"), "LJ");
}

// ---- TableWriter ----------------------------------------------------------

TEST(TableWriterTest, PrintsAlignedTable) {
  TableWriter t({"Graph", "Time"});
  t.AddRow({"LJ", Fmt(1.5)});
  t.AddRow({"Twitter", Fmt(2.0)});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Graph"), std::string::npos);
  EXPECT_NE(out.find("Twitter"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
}

TEST(TableWriterTest, CsvFormat) {
  TableWriter t({"a", "b"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableWriterTest, FmtVariants) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(static_cast<int64_t>(-5)), "-5");
  EXPECT_EQ(Fmt(static_cast<uint64_t>(7)), "7");
}

// ---- RunningStats -----------------------------------------------------------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0);
  EXPECT_EQ(s.cv(), 0);
}

TEST(Pow2HistogramTest, Buckets) {
  Pow2Histogram h;
  h.Add(0);
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(4);
  h.Add(1000);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.buckets()[0], 2u);  // {0,1}
  EXPECT_EQ(h.buckets()[1], 2u);  // {2,3}
  EXPECT_EQ(h.buckets()[2], 1u);  // {4..7}
  EXPECT_EQ(h.buckets()[9], 1u);  // {512..1023}
}

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (int run = 0; run < 3; ++run) {
    pool.RunTeam(100, [&hits](size_t c, size_t) { hits[c].fetch_add(1); });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 3);
}

TEST(ThreadPoolTest, OneThreadRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  std::vector<int> order;
  bool finished = false;
  pool.RunTeam(
      5,
      [&order](size_t c, size_t member) {
        EXPECT_EQ(member, 0u);
        order.push_back(static_cast<int>(c));
      },
      [&] { finished = true; });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(finished);
  EXPECT_EQ(pool.tasks_executed(), 0u);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

}  // namespace
}  // namespace rlcut
