// Tests for the observability subsystem (src/obs) and the unified
// partitioner API it plugs into: metrics registry thread-safety,
// histogram percentiles, trace span nesting, exporter golden strings,
// the string-keyed partitioner registry, and the fallible
// Partitioner::Run contract.

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/extra_partitioners.h"
#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rlcut/trainer.h"

namespace rlcut {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::MetricKind;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::TraceEvent;
using obs::TraceRecorder;
using obs::TraceSpan;

// ---- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistryTest, CounterConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Each thread does its own lookup: exercises concurrent GetCounter
      // against concurrent increments.
      Counter* counter = registry.GetCounter("test.hits");
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("test.hits")->value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, HistogramConcurrentObservationsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kObservations = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Histogram* h = registry.GetHistogram("test.latency");
      for (int i = 0; i < kObservations; ++i) {
        h->Observe(1.0 + t);  // values 1..4, one per thread
      }
    });
  }
  for (auto& t : threads) t.join();
  Histogram* h = registry.GetHistogram("test.latency");
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kObservations);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 4.0);
  EXPECT_DOUBLE_EQ(h->sum(), kObservations * (1.0 + 2.0 + 3.0 + 4.0));
}

TEST(MetricsRegistryTest, LabeledSeriesAreDistinct) {
  MetricsRegistry registry;
  registry.GetCounter("steps", {{"step", "0"}})->Increment(3);
  registry.GetCounter("steps", {{"step", "1"}})->Increment(5);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.GetCounter("steps", {{"step", "0"}})->value(), 3u);
  EXPECT_EQ(registry.GetCounter("steps", {{"step", "1"}})->value(), 5u);

  const std::vector<MetricSample> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].LabelValue("step"), "0");
  EXPECT_EQ(snapshot[1].LabelValue("step"), "1");
  EXPECT_EQ(snapshot[0].LabelValue("absent"), "");
}

TEST(MetricsRegistryTest, PointersStableAcrossLookups) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("stable");
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("stable"), first);
}

// ---- Histogram ----------------------------------------------------------

TEST(HistogramTest, BasicStatistics) {
  Histogram h;
  h.Observe(1.0);
  h.Observe(2.0);
  h.Observe(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
}

TEST(HistogramTest, PercentilesOfUniformValues) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Observe(static_cast<double>(v));
  // Buckets are octaves, so percentiles are exact to within one power
  // of two and clamped to the observed range.
  EXPECT_NEAR(h.Percentile(0.5), 500.0, 64.0);
  EXPECT_GE(h.Percentile(0.9), 800.0);
  EXPECT_LE(h.Percentile(0.99), 1000.0);
  EXPECT_GE(h.Percentile(0.99), h.Percentile(0.9));
  EXPECT_GE(h.Percentile(0.9), h.Percentile(0.5));
  EXPECT_NEAR(h.Percentile(0.0), 1.0, 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 1000.0);
}

TEST(HistogramTest, SingleValuePercentilesCollapse) {
  Histogram h;
  h.Observe(3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 3.5);
}

TEST(HistogramTest, BucketIndexCoversRange) {
  EXPECT_EQ(Histogram::BucketIndex(1.0), -Histogram::kMinExp);
  EXPECT_EQ(Histogram::BucketIndex(2.0), -Histogram::kMinExp + 1);
  // Non-positive and non-finite inputs land in the underflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0);
  // Huge values clamp to the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::BucketLowerBound(-Histogram::kMinExp), 1.0);
}

// ---- CSV exporter golden ------------------------------------------------

TEST(MetricsRegistryTest, CsvExportGolden) {
  MetricsRegistry registry;
  registry.GetCounter("alpha")->Increment(2);
  registry.GetGauge("beta", {{"dc", "us-east"}})->Set(1.5);
  registry.GetHistogram("gamma")->Observe(2.0);
  std::ostringstream os;
  registry.WriteCsv(os);
  EXPECT_EQ(os.str(),
            "name,labels,kind,value,count,sum,min,max,p50,p90,p99\n"
            "alpha,,counter,2,0,0,0,0,0,0,0\n"
            "beta,dc=us-east,gauge,1.5,0,0,0,0,0,0,0\n"
            "gamma,,histogram,2,1,2,2,2,2,2,2\n");
}

// ---- Trace spans --------------------------------------------------------

TEST(TraceTest, DisabledTracingRecordsNothing) {
  ASSERT_EQ(obs::GetTraceRecorder(), nullptr);
  {
    TraceSpan span("noop", "test");
    span.AddArg("x", 1.0);
  }
  EXPECT_FALSE(obs::TracingEnabled());
}

TEST(TraceTest, NestedSpansRecordContainedIntervals) {
  TraceRecorder recorder;
  obs::SetTraceRecorder(&recorder);
  {
    TraceSpan outer("outer", "test");
    outer.AddArg("depth", 0);
    {
      TraceSpan inner("inner", "test");
      inner.AddArg("depth", 1);
    }
  }
  obs::SetTraceRecorder(nullptr);

  const std::vector<TraceEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: the inner span ends (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // The child's interval nests inside the parent's.
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us + 1e-6);
  ASSERT_EQ(inner.args.size(), 1u);
  EXPECT_EQ(inner.args[0].first, "depth");
  EXPECT_DOUBLE_EQ(inner.args[0].second, 1.0);
}

TEST(TraceTest, ThreadsGetDistinctTids) {
  const uint32_t main_tid = obs::CurrentTraceTid();
  EXPECT_GE(main_tid, 1u);
  EXPECT_EQ(obs::CurrentTraceTid(), main_tid);  // stable per thread
  uint32_t other_tid = 0;
  std::thread([&other_tid] { other_tid = obs::CurrentTraceTid(); }).join();
  EXPECT_NE(other_tid, main_tid);
}

TEST(TraceTest, ChromeTraceExportGolden) {
  TraceRecorder recorder;
  TraceEvent alpha;
  alpha.name = "alpha";
  alpha.category = "test";
  alpha.start_us = 1.0;
  alpha.duration_us = 2.5;
  alpha.tid = 1;
  alpha.args = {{"x", 3.0}};
  recorder.Record(alpha);
  TraceEvent beta;
  beta.name = "be\"ta";  // exercises JSON escaping
  beta.category = "test";
  beta.start_us = 4.0;
  beta.duration_us = 0.5;
  beta.tid = 2;
  recorder.Record(beta);

  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"alpha\",\"cat\":\"test\",\"ph\":\"X\","
            "\"ts\":1.000,\"dur\":2.500,\"pid\":1,\"tid\":1,"
            "\"args\":{\"x\":3}},\n"
            "{\"name\":\"be\\\"ta\",\"cat\":\"test\",\"ph\":\"X\","
            "\"ts\":4.000,\"dur\":0.500,\"pid\":1,\"tid\":2}\n"
            "],\"displayTimeUnit\":\"ms\"}\n");

  std::ostringstream csv;
  recorder.WriteCsv(csv);
  EXPECT_EQ(csv.str(),
            "name,category,tid,start_us,duration_us,args\n"
            "alpha,test,1,1.000,2.500,x=3\n"
            "be\"ta,test,2,4.000,0.500,\n");
}

// ---- Partitioner registry ----------------------------------------------

TEST(PartitionerRegistryTest, PaperComparisonsInFig10Order) {
  std::vector<std::string> paper;
  for (const PartitionerInfo& info : ListPartitioners()) {
    if (info.paper_comparison) paper.push_back(info.name);
  }
  EXPECT_EQ(paper, (std::vector<std::string>{"RandPG", "Geo-Cut", "HashPL",
                                             "Ginger", "Revolver",
                                             "Spinner"}));
}

TEST(PartitionerRegistryTest, EveryEntryConstructsWithMatchingName) {
  for (const PartitionerInfo& info : ListPartitioners()) {
    SCOPED_TRACE(info.name);
    Result<std::unique_ptr<Partitioner>> p =
        MakePartitionerByName(info.name, {});
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    EXPECT_EQ((*p)->name(), info.name);
    EXPECT_FALSE(info.summary.empty());
  }
}

TEST(PartitionerRegistryTest, RlcutIsRegisteredAndBudgetAware) {
  bool found = false;
  for (const PartitionerInfo& info : ListPartitioners()) {
    if (info.name != "RLCut") continue;
    found = true;
    EXPECT_TRUE(info.budget_aware);
    EXPECT_FALSE(info.paper_comparison);  // ours, not a comparison
  }
  EXPECT_TRUE(found);
}

TEST(PartitionerRegistryTest, UnknownNameIsNotFound) {
  Result<std::unique_ptr<Partitioner>> p =
      MakePartitionerByName("NoSuchMethod", {});
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
  EXPECT_NE(p.status().message().find("unknown partitioner"),
            std::string::npos);
  // The error lists the valid names to pick from.
  EXPECT_NE(p.status().message().find("RLCut"), std::string::npos);
}

// ---- Fallible Partitioner::Run -----------------------------------------

class FallibleRunTest : public ::testing::Test {
 protected:
  FallibleRunTest() : topology_(MakeEc2Topology(4, Heterogeneity::kLow)) {
    PowerLawOptions opt;
    opt.num_vertices = 256;
    opt.num_edges = 1024;
    graph_ = GeneratePowerLaw(opt);
    GeoLocatorOptions geo;
    geo.num_dcs = 4;
    locations_ = AssignGeoLocations(graph_, geo);
    sizes_ = AssignInputSizes(graph_);

    ctx_.graph = &graph_;
    ctx_.topology = &topology_;
    ctx_.locations = &locations_;
    ctx_.input_sizes = &sizes_;
    ctx_.workload = Workload::PageRank();
    ctx_.theta = PartitionState::AutoTheta(graph_);
    ctx_.budget = 100.0;
    ctx_.seed = 7;
  }

  Graph graph_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

TEST_F(FallibleRunTest, ValidContextSucceeds) {
  auto partitioner = MakePartitionerByName("RandPG", {}).value();
  Result<PartitionOutput> out = partitioner->Run(ctx_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->state.CheckInvariants());
}

TEST_F(FallibleRunTest, NullGraphIsInvalidArgument) {
  ctx_.graph = nullptr;
  auto partitioner = MakePartitionerByName("RandPG", {}).value();
  Result<PartitionOutput> out = partitioner->Run(ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FallibleRunTest, NegativeBudgetIsInvalidArgument) {
  ctx_.budget = -1.0;
  auto partitioner = MakePartitionerByName("RandPG", {}).value();
  Result<PartitionOutput> out = partitioner->Run(ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FallibleRunTest, LocationSizeMismatchIsInvalidArgument) {
  std::vector<DcId> short_locations(graph_.num_vertices() - 1, 0);
  ctx_.locations = &short_locations;
  auto partitioner = MakePartitionerByName("RandPG", {}).value();
  Result<PartitionOutput> out = partitioner->Run(ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FallibleRunTest, LocationOutOfDcRangeIsInvalidArgument) {
  std::vector<DcId> bad_locations = locations_;
  bad_locations[0] = static_cast<DcId>(topology_.num_dcs());
  ctx_.locations = &bad_locations;
  auto partitioner = MakePartitionerByName("Spinner", {}).value();
  Result<PartitionOutput> out = partitioner->Run(ctx_);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FallibleRunTest, RunRecordsPartitionerMetrics) {
  auto partitioner = MakePartitionerByName("HashPL", {}).value();
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs::Counter* runs =
      registry.GetCounter("partitioner.runs", {{"method", "HashPL"}});
  const uint64_t before = runs->value();
  ASSERT_TRUE(partitioner->Run(ctx_).ok());
  EXPECT_EQ(runs->value(), before + 1);
}

}  // namespace
}  // namespace rlcut
