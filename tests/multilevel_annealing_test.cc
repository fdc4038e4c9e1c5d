#include <gtest/gtest.h>

#include "baselines/extra_partitioners.h"
#include "cloud/topology.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "partition/metrics.h"
#include "rlcut/rlcut_partitioner.h"

namespace rlcut {
namespace {

class OptimizerBaselinesTest : public ::testing::Test {
 protected:
  OptimizerBaselinesTest()
      : topology_(MakeEc2Topology(8, Heterogeneity::kMedium)) {
    PowerLawOptions opt;
    opt.num_vertices = 1024;
    opt.num_edges = 8192;
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
    ctx_.seed = 5;
  }

  Graph graph_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

// ---- Multilevel -----------------------------------------------------------

TEST_F(OptimizerBaselinesTest, MultilevelProducesValidState) {
  PartitionOutput out = MakeMultilevel()->RunOrDie(ctx_);
  EXPECT_TRUE(out.state.CheckInvariants());
  EXPECT_GE(out.state.ReplicationFactor(), 1.0);
}

TEST_F(OptimizerBaselinesTest, MultilevelCutsWanVsHashEdgeCut) {
  PartitionOutput ml = MakeMultilevel()->RunOrDie(ctx_);
  // Hash edge-cut comparison point.
  PartitionConfig config;
  config.model = ComputeModel::kEdgeCut;
  config.workload = ctx_.workload;
  PartitionState hash_state(ctx_.graph, ctx_.topology, ctx_.locations,
                            ctx_.input_sizes, config);
  std::vector<DcId> masters(graph_.num_vertices());
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    masters[v] = static_cast<DcId>(HashU64(v) % 8);
  }
  hash_state.ResetDerived(masters);
  // A structureless Chung-Lu graph has near-worst-case min cuts, so the
  // margin is modest — but multilevel must still beat hashing.
  EXPECT_LT(ml.state.WanBytesPerIteration(),
            0.9 * hash_state.WanBytesPerIteration());
}

TEST_F(OptimizerBaselinesTest, MultilevelFindsStructuredCuts) {
  // On a 32x32 grid the optimal 8-way cut is tiny; a correct multilevel
  // pipeline must find a cut far below hashing's ~(M-1)/M.
  Graph grid = GenerateGrid(32, 32);
  std::vector<DcId> locations(grid.num_vertices(), 0);
  std::vector<double> sizes(grid.num_vertices(), 1e6);
  PartitionerContext ctx = ctx_;
  ctx.graph = &grid;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;

  PartitionOutput ml = MakeMultilevel()->RunOrDie(ctx);
  auto cut_fraction = [&](const PartitionState& state) {
    uint64_t cut = 0;
    for (EdgeId e = 0; e < grid.num_edges(); ++e) {
      const Edge edge = grid.GetEdge(e);
      if (state.master(edge.src) != state.master(edge.dst)) ++cut;
    }
    return static_cast<double>(cut) / grid.num_edges();
  };
  // Hash would cut ~87.5%; an 8-way grid partition can stay under ~15%.
  EXPECT_LT(cut_fraction(ml.state), 0.25);
  EXPECT_TRUE(ml.state.CheckInvariants());
}

TEST_F(OptimizerBaselinesTest, MultilevelKeepsBalance) {
  PartitionOutput ml = MakeMultilevel()->RunOrDie(ctx_);
  const PartitionReport report = MakeReport(ml.state);
  EXPECT_LT(report.master_balance, 1.5);
}

TEST_F(OptimizerBaselinesTest, MultilevelHandlesTinyAndDisconnected) {
  // A graph smaller than the coarsening target plus isolated vertices.
  GraphBuilder b(40);
  for (VertexId v = 0; v < 10; ++v) b.AddEdge(v, (v + 1) % 10);
  Graph g = std::move(b).Build();
  std::vector<DcId> locations(40, 0);
  std::vector<double> sizes(40, 1e6);
  PartitionerContext ctx = ctx_;
  ctx.graph = &g;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  PartitionOutput out = MakeMultilevel()->RunOrDie(ctx);
  EXPECT_TRUE(out.state.CheckInvariants());
}

TEST_F(OptimizerBaselinesTest, MultilevelBeatsLdgOnLocality) {
  // The multilevel pipeline should localize at least as well as a
  // single-pass streaming heuristic.
  PartitionOutput ml = MakeMultilevel()->RunOrDie(ctx_);
  PartitionOutput ldg = MakeLdg()->RunOrDie(ctx_);
  EXPECT_LT(ml.state.WanBytesPerIteration(),
            1.1 * ldg.state.WanBytesPerIteration());
}

// ---- Annealing -----------------------------------------------------------

TEST_F(OptimizerBaselinesTest, AnnealingImprovesOverNaturalStart) {
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = ctx_.theta;
  config.workload = ctx_.workload;
  PartitionState natural(ctx_.graph, ctx_.topology, ctx_.locations,
                         ctx_.input_sizes, config);
  natural.ResetDerived(locations_);
  const double before = natural.CurrentObjective().transfer_seconds;

  AnnealingOptions opt;
  opt.moves_per_vertex = 10;
  PartitionOutput out = MakeAnnealing(opt)->RunOrDie(ctx_);
  EXPECT_LT(out.state.CurrentObjective().transfer_seconds, before);
  EXPECT_TRUE(out.state.CheckInvariants());
}

TEST_F(OptimizerBaselinesTest, AnnealingRespectsBudgetFromFeasibleStart) {
  AnnealingOptions opt;
  opt.moves_per_vertex = 10;
  PartitionOutput out = MakeAnnealing(opt)->RunOrDie(ctx_);
  EXPECT_LE(out.state.CurrentObjective().cost_dollars,
            ctx_.budget * 1.0001);
}

TEST_F(OptimizerBaselinesTest, AnnealingDeterministicBySeed) {
  AnnealingOptions opt;
  opt.moves_per_vertex = 5;
  PartitionOutput a = MakeAnnealing(opt)->RunOrDie(ctx_);
  PartitionOutput b = MakeAnnealing(opt)->RunOrDie(ctx_);
  EXPECT_EQ(a.state.masters(), b.state.masters());
}

TEST_F(OptimizerBaselinesTest, LookupIncludesNewOptimizers) {
  EXPECT_TRUE(MakePartitionerByName("Multilevel", {}).ok());
  EXPECT_TRUE(MakePartitionerByName("Annealing", {}).ok());
  EXPECT_TRUE(MakePartitionerByName("SingleAgentRL", {}).ok());
}

TEST_F(OptimizerBaselinesTest, SingleAgentRlProducesValidState) {
  SingleAgentRlOptions opt;
  opt.moves_per_vertex = 5;
  PartitionOutput out = MakeSingleAgentRl(opt)->RunOrDie(ctx_);
  EXPECT_TRUE(out.state.CheckInvariants());
  EXPECT_LE(out.state.CurrentObjective().cost_dollars,
            ctx_.budget * 1.0001);
}

TEST_F(OptimizerBaselinesTest, SingleAgentRlImprovesOverNatural) {
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = ctx_.theta;
  config.workload = ctx_.workload;
  PartitionState natural(ctx_.graph, ctx_.topology, ctx_.locations,
                         ctx_.input_sizes, config);
  natural.ResetDerived(locations_);
  const double before = natural.CurrentObjective().transfer_seconds;

  SingleAgentRlOptions opt;
  opt.moves_per_vertex = 10;
  PartitionOutput out = MakeSingleAgentRl(opt)->RunOrDie(ctx_);
  EXPECT_LT(out.state.CurrentObjective().transfer_seconds, before);
}

TEST_F(OptimizerBaselinesTest, SingleAgentRlMoreMovesMoreQuality) {
  SingleAgentRlOptions small;
  small.moves_per_vertex = 1;
  SingleAgentRlOptions large;
  large.moves_per_vertex = 16;
  PartitionOutput a = MakeSingleAgentRl(small)->RunOrDie(ctx_);
  PartitionOutput b = MakeSingleAgentRl(large)->RunOrDie(ctx_);
  EXPECT_LT(b.state.CurrentObjective().transfer_seconds,
            a.state.CurrentObjective().transfer_seconds);
}

}  // namespace
}  // namespace rlcut
