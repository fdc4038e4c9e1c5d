// End-to-end integration tests: partition -> (optionally serialize) ->
// execute on the GAS engine -> verify results and traffic accounting.

#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "baselines/extra_partitioners.h"
#include "cloud/topology.h"
#include "common/random.h"
#include "engine/gas_engine.h"
#include "engine/reference.h"
#include "engine/vertex_program.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "partition/plan_io.h"
#include "rlcut/rlcut_partitioner.h"

namespace rlcut {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : topology_(MakeEc2Topology(8, Heterogeneity::kMedium)) {
    PowerLawOptions opt;
    opt.num_vertices = 768;
    opt.num_edges = 6144;
    graph_ = GeneratePowerLaw(opt);
    locations_ = AssignGeoLocations(graph_, GeoLocatorOptions{});
    sizes_ = AssignInputSizes(graph_);
    ctx_.graph = &graph_;
    ctx_.topology = &topology_;
    ctx_.locations = &locations_;
    ctx_.input_sizes = &sizes_;
    ctx_.workload = Workload::PageRank();
    ctx_.theta = PartitionState::AutoTheta(graph_);
    double centralized = 0;
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      centralized += topology_.UploadCost(locations_[v], sizes_[v]);
    }
    ctx_.budget = 0.4 * centralized;
    ctx_.seed = 9;
  }

  Graph graph_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

TEST_F(IntegrationTest, EveryPartitionerYieldsExactPageRank) {
  const std::vector<double> expected = ReferencePageRank(graph_, 10);
  for (const char* name :
       {"RandPG", "HashPL", "Ginger", "Spinner", "Fennel", "Oblivious",
        "HDRF", "LDG", "Multilevel", "Annealing"}) {
    SCOPED_TRACE(name);
    auto partitioner = MakePartitionerByName(name, {});
    ASSERT_TRUE(partitioner.ok()) << partitioner.status().ToString();
    PartitionOutput out = (*partitioner)->RunOrDie(ctx_);
    auto program = MakePageRank(10);
    GasEngine engine(&out.state);
    const RunResult run = engine.Run(program.get());
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      ASSERT_NEAR(run.values[v], expected[v], 1e-10);
    }
  }
}

TEST_F(IntegrationTest, PageRankModelPredictionMatchesRealizedTraffic) {
  // PageRank keeps every vertex active every iteration, so the Eq. 1-5
  // model should agree with the engine's realized traffic up to the
  // vertices whose ranks converge below the change threshold early and
  // stop broadcasting (a ~10-15% effect on small graphs).
  RLCutOptions opt;
  opt.max_steps = 3;
  opt.budget = ctx_.budget;
  RLCutRunOutput out = RunRLCut(ctx_, opt);
  auto program = MakePageRank(10);
  GasEngine engine(&out.state);
  const RunResult run = engine.Run(program.get());
  const Objective predicted = out.state.CurrentObjective();
  EXPECT_NEAR(run.total_transfer_seconds, predicted.transfer_seconds,
              0.20 * predicted.transfer_seconds);
  EXPECT_NEAR(run.total_wan_bytes,
              out.state.WanBytesPerIteration() * 10.0,
              0.20 * run.total_wan_bytes);
  // The model must not under-predict: it is an upper bound on traffic.
  EXPECT_LE(run.total_transfer_seconds,
            predicted.transfer_seconds * 1.0001);
}

TEST_F(IntegrationTest, EngineTrafficAccountingIsConsistent) {
  PartitionOutput out =
      MakePartitionerByName("HashPL", {}).value()->RunOrDie(ctx_);
  auto program = MakePageRank(6);
  GasEngine engine(&out.state);
  const RunResult run = engine.Run(program.get());
  double sum_transfer = 0;
  double sum_uplink_bytes = 0;
  double sum_cost = 0;
  for (const IterationTraffic& t : run.iterations) {
    sum_transfer += t.transfer_seconds;
    sum_cost += t.upload_cost;
    for (int r = 0; r < topology_.num_dcs(); ++r) {
      sum_uplink_bytes += t.gather_up[r] + t.apply_up[r];
    }
  }
  EXPECT_NEAR(sum_transfer, run.total_transfer_seconds, 1e-12);
  EXPECT_NEAR(sum_uplink_bytes, run.total_wan_bytes, 1e-6);
  EXPECT_NEAR(sum_cost, run.total_upload_cost, 1e-12);
}

TEST_F(IntegrationTest, PlanRoundTripPreservesEngineBehaviour) {
  RLCutOptions opt;
  opt.max_steps = 3;
  opt.budget = ctx_.budget;
  RLCutRunOutput out = RunRLCut(ctx_, opt);

  const std::string path =
      (std::filesystem::temp_directory_path() / "rlcut_integration_plan.txt")
          .string();
  ASSERT_TRUE(SavePlan(ExtractPlan(out.state), path).ok());
  Result<PartitionPlan> plan = LoadPlan(path);
  ASSERT_TRUE(plan.ok());

  PartitionConfig config;
  config.model = plan->model;
  config.theta = plan->theta;
  config.workload = ctx_.workload;
  PartitionState restored(&graph_, &topology_, &locations_, &sizes_,
                          config);
  ASSERT_TRUE(ApplyPlan(*plan, &restored).ok());

  auto p1 = MakePageRank(8);
  auto p2 = MakePageRank(8);
  GasEngine original_engine(&out.state);
  GasEngine restored_engine(&restored);
  const RunResult a = original_engine.Run(p1.get());
  const RunResult b = restored_engine.Run(p2.get());
  EXPECT_DOUBLE_EQ(a.total_transfer_seconds, b.total_transfer_seconds);
  EXPECT_DOUBLE_EQ(a.total_wan_bytes, b.total_wan_bytes);
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, ParallelEvaluateMoveMatchesSerial) {
  // EvaluateMove is documented const + thread-safe given per-thread
  // scratch; hammer it from several threads and compare with serial
  // results bit for bit.
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = ctx_.theta;
  config.workload = ctx_.workload;
  PartitionState state(&graph_, &topology_, &locations_, &sizes_, config);
  state.ResetDerived(locations_);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<Objective>> parallel_results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EvalScratch scratch;
      Rng rng(100 + t);
      parallel_results[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const VertexId v = static_cast<VertexId>(
            rng.UniformInt(graph_.num_vertices()));
        const DcId to = static_cast<DcId>(rng.UniformInt(8));
        parallel_results[t].push_back(state.EvaluateMove(v, to, &scratch));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EvalScratch scratch;
    Rng rng(100 + t);
    for (int i = 0; i < kPerThread; ++i) {
      const VertexId v =
          static_cast<VertexId>(rng.UniformInt(graph_.num_vertices()));
      const DcId to = static_cast<DcId>(rng.UniformInt(8));
      const Objective serial = state.EvaluateMove(v, to, &scratch);
      EXPECT_DOUBLE_EQ(serial.transfer_seconds,
                       parallel_results[t][i].transfer_seconds);
      EXPECT_DOUBLE_EQ(serial.cost_dollars,
                       parallel_results[t][i].cost_dollars);
    }
  }
  // And the state itself is untouched.
  EXPECT_TRUE(state.CheckInvariants());
}

TEST_F(IntegrationTest, RLCutPipelineBeatsRandomEndToEnd) {
  // The headline, measured on the engine rather than the model: a
  // partitioning optimized by RLCut must realize lower transfer time
  // than random vertex-cut on the same execution.
  PartitionOutput random =
      MakePartitionerByName("RandPG", {}).value()->RunOrDie(ctx_);
  RLCutOptions opt;
  opt.max_steps = 5;
  opt.budget = ctx_.budget;
  RLCutRunOutput ours = RunRLCut(ctx_, opt);

  auto p1 = MakePageRank(10);
  auto p2 = MakePageRank(10);
  GasEngine random_engine(&random.state);
  GasEngine our_engine(&ours.state);
  const double random_transfer =
      random_engine.Run(p1.get()).total_transfer_seconds;
  const double our_transfer =
      our_engine.Run(p2.get()).total_transfer_seconds;
  EXPECT_LT(our_transfer, 0.8 * random_transfer);
}

}  // namespace
}  // namespace rlcut
