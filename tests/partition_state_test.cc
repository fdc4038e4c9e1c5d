#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/topology.h"
#include "common/random.h"
#include "graph/generators.h"
#include "partition/partition_state.h"

namespace rlcut {
namespace {

// Fixture bundling a graph + topology + locations + sizes + state.
struct Instance {
  Instance(Graph graph_in, Topology topo_in, PartitionConfig config,
           uint64_t seed = 3)
      : graph(std::move(graph_in)), topology(std::move(topo_in)) {
    Rng rng(seed);
    locations.resize(graph.num_vertices());
    for (auto& l : locations) {
      l = static_cast<DcId>(rng.UniformInt(topology.num_dcs()));
    }
    sizes.assign(graph.num_vertices(), 1e6);  // 1 MB per vertex
    state = std::make_unique<PartitionState>(&graph, &topology, &locations,
                                             &sizes, config);
  }

  Graph graph;
  Topology topology;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  std::unique_ptr<PartitionState> state;
};

PartitionConfig HybridConfig(uint32_t theta = 100) {
  PartitionConfig c;
  c.model = ComputeModel::kHybridCut;
  c.theta = theta;
  c.workload = Workload::PageRank(10);
  return c;
}

// ---- Hand-computed low-degree example ----------------------------------

TEST(PartitionStateTest, AllLocalMeansNoTraffic) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Instance inst(std::move(b).Build(), MakeUniformTopology(2, 0.5, 2.5, 0.1),
                HybridConfig());
  inst.state->ResetDerived({0, 0});
  EXPECT_DOUBLE_EQ(inst.state->TransferSecondsPerIteration(), 0.0);
  EXPECT_DOUBLE_EQ(inst.state->WanBytesPerIteration(), 0.0);
  EXPECT_DOUBLE_EQ(inst.state->RuntimeCostPerIteration(), 0.0);
  EXPECT_DOUBLE_EQ(inst.state->ReplicationFactor(), 1.0);
}

TEST(PartitionStateTest, LowDegreeSplitMatchesHandComputation) {
  // Edge 0 -> 1, both low-degree; master(0)=DC0, master(1)=DC1.
  // Low-cut puts the edge at DC1, so vertex 0 gains a mirror at DC1.
  // Apply stage: DC0 uploads 8 bytes, DC1 downloads 8 bytes.
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Instance inst(std::move(b).Build(), MakeUniformTopology(2, 0.5, 2.5, 0.1),
                HybridConfig());
  inst.state->ResetDerived({0, 1});

  EXPECT_EQ(inst.state->edge_dc(0), 1);
  EXPECT_EQ(inst.state->MirrorCount(0), 1);
  EXPECT_EQ(inst.state->MirrorCount(1), 0);
  EXPECT_DOUBLE_EQ(inst.state->ReplicationFactor(), 1.5);

  const double uplink_seconds = 8.0 / (0.5 * 1e9);
  const double downlink_seconds = 8.0 / (2.5 * 1e9);
  EXPECT_DOUBLE_EQ(inst.state->TransferSecondsPerIteration(),
                   std::max(uplink_seconds, downlink_seconds));
  // Runtime cost: 8 bytes uploaded from DC0 at $0.1/GB.
  EXPECT_DOUBLE_EQ(inst.state->RuntimeCostPerIteration(), 8e-9 * 0.1);
  EXPECT_DOUBLE_EQ(inst.state->WanBytesPerIteration(), 8.0);
}

TEST(PartitionStateTest, HighDegreeSplitHasGatherAndApply) {
  // theta=1 makes vertex 1 high-degree. High-cut: edge 0->1 placed at
  // master(0)=DC0; vertex 1 gets a gather mirror at DC0.
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Instance inst(std::move(b).Build(), MakeUniformTopology(2, 0.5, 2.5, 0.1),
                HybridConfig(/*theta=*/1));
  inst.state->ResetDerived({0, 1});

  EXPECT_TRUE(inst.state->is_high_degree(1));
  EXPECT_EQ(inst.state->edge_dc(0), 0);
  EXPECT_EQ(inst.state->MirrorCount(1), 1);

  const double up = 0.5 * 1e9;
  const double down = 2.5 * 1e9;
  // Gather: DC0 uploads 8B, DC1 downloads 8B. Apply: DC1 uploads 8B,
  // DC0 downloads 8B. Stages are additive (global barrier).
  const double t_gather = std::max(8.0 / up, 8.0 / down);
  const double t_apply = std::max(8.0 / up, 8.0 / down);
  EXPECT_DOUBLE_EQ(inst.state->TransferSecondsPerIteration(),
                   t_gather + t_apply);
  EXPECT_DOUBLE_EQ(inst.state->WanBytesPerIteration(), 16.0);
}

TEST(PartitionStateTest, MoveCostChargedAtHomePrice) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Topology topo({{"A", 0.5, 2.5, 0.10}, {"B", 0.5, 2.5, 0.20}});
  PartitionConfig config = HybridConfig();
  Graph graph = std::move(b).Build();
  std::vector<DcId> locations = {0, 1};
  std::vector<double> sizes = {1e9, 2e9};
  PartitionState state(&graph, &topo, &locations, &sizes, config);

  state.ResetDerived({0, 1});  // natural: no movement
  EXPECT_DOUBLE_EQ(state.MoveCost(), 0.0);
  state.MoveMaster(1, 0);  // vertex 1 (2 GB) leaves home DC B ($0.2/GB)
  EXPECT_DOUBLE_EQ(state.MoveCost(), 0.4);
  state.MoveMaster(1, 1);  // back home
  EXPECT_DOUBLE_EQ(state.MoveCost(), 0.0);
}

TEST(PartitionStateTest, MoveCostIndependentOfMoveOrder) {
  // Non-whole-GB sizes and EC2 prices: each vertex's Eq. 4 term is
  // inexact, so summing per move would make the cost depend on the
  // order of the moves. Two orders of one move set, and a cold rebuild
  // over the final masters, must agree bit for bit.
  PowerLawOptions gen;
  gen.num_vertices = 400;
  gen.num_edges = 2400;
  gen.seed = 5;
  Instance forward(GeneratePowerLaw(gen),
                   MakeEc2Topology(6, Heterogeneity::kHigh),
                   HybridConfig(8));
  Instance backward(GeneratePowerLaw(gen),
                    MakeEc2Topology(6, Heterogeneity::kHigh),
                    HybridConfig(8));
  for (VertexId v = 0; v < forward.graph.num_vertices(); ++v) {
    forward.sizes[v] = backward.sizes[v] = 1.0 + 0.25 * (v % 8) + 37 * v;
  }
  forward.state->ResetDerived(forward.locations);
  backward.state->ResetDerived(backward.locations);

  Rng rng(11);
  std::vector<std::pair<VertexId, DcId>> moves;
  for (VertexId v = 0; v < forward.graph.num_vertices(); v += 2) {
    moves.emplace_back(v, static_cast<DcId>(rng.UniformInt(6)));
  }
  for (const auto& [v, to] : moves) forward.state->MoveMaster(v, to);
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    backward.state->MoveMaster(it->first, it->second);
  }
  ASSERT_EQ(forward.state->masters(), backward.state->masters());
  ASSERT_GT(forward.state->MoveCost(), 0.0);

  PartitionState fresh(&forward.graph, &forward.topology,
                       &forward.locations, &forward.sizes,
                       forward.state->config());
  fresh.ResetDerived(forward.state->masters());
  for (const PartitionState* other : {backward.state.get(), &fresh}) {
    EXPECT_EQ(forward.state->MoveCost(), other->MoveCost());
    const Objective a = forward.state->CurrentObjective();
    const Objective b = other->CurrentObjective();
    EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
    EXPECT_EQ(a.cost_dollars, b.cost_dollars);
    EXPECT_EQ(a.smooth_seconds, b.smooth_seconds);
  }
}

TEST(PartitionStateTest, TotalObjectiveScalesWithActivity) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  PartitionConfig config = HybridConfig();
  config.workload = Workload::PageRank(5);  // activity sum = 5
  Instance inst(std::move(b).Build(), MakeUniformTopology(2, 0.5, 2.5, 0.1),
                config);
  inst.state->ResetDerived({0, 1});
  const Objective obj = inst.state->CurrentObjective();
  EXPECT_DOUBLE_EQ(obj.transfer_seconds,
                   5.0 * inst.state->TransferSecondsPerIteration());
}

// ---- Property tests over random move sequences ---------------------------

struct PropertyParam {
  ComputeModel model;
  const char* graph_kind;  // "rmat", "powerlaw", "ring"
  int num_dcs;
};

class MoveSequenceTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  static Graph MakeGraph(const char* kind) {
    if (std::string(kind) == "rmat") {
      RmatOptions opt;
      opt.num_vertices = 256;
      opt.num_edges = 2048;
      return GenerateRmat(opt);
    }
    if (std::string(kind) == "powerlaw") {
      PowerLawOptions opt;
      opt.num_vertices = 256;
      opt.num_edges = 2048;
      return GeneratePowerLaw(opt);
    }
    return GenerateRing(256, 4);
  }

  static PartitionConfig MakeConfig(ComputeModel model) {
    PartitionConfig c;
    c.model = model;
    c.theta = 8;
    c.workload = Workload::PageRank(10);
    return c;
  }
};

TEST_P(MoveSequenceTest, IncrementalStateMatchesRebuild) {
  const PropertyParam& param = GetParam();
  Instance inst(MakeGraph(param.graph_kind),
                MakeEc2Topology(param.num_dcs, Heterogeneity::kMedium),
                MakeConfig(param.model));
  inst.state->ResetDerived(inst.locations);
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(inst.graph.num_vertices()));
    const DcId to = static_cast<DcId>(rng.UniformInt(param.num_dcs));
    inst.state->MoveMaster(v, to);
  }
  EXPECT_TRUE(inst.state->CheckInvariants());
}

TEST_P(MoveSequenceTest, EvaluateMoveMatchesApplyAndMeasure) {
  const PropertyParam& param = GetParam();
  Instance inst(MakeGraph(param.graph_kind),
                MakeEc2Topology(param.num_dcs, Heterogeneity::kMedium),
                MakeConfig(param.model));
  inst.state->ResetDerived(inst.locations);
  Rng rng(17);
  EvalScratch scratch;
  for (int i = 0; i < 100; ++i) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(inst.graph.num_vertices()));
    const DcId to = static_cast<DcId>(rng.UniformInt(param.num_dcs));
    const DcId from = inst.state->master(v);
    const Objective predicted = inst.state->EvaluateMove(v, to, &scratch);
    inst.state->MoveMaster(v, to);
    const Objective actual = inst.state->CurrentObjective();
    EXPECT_NEAR(predicted.transfer_seconds, actual.transfer_seconds,
                1e-12 + 1e-9 * actual.transfer_seconds);
    EXPECT_NEAR(predicted.cost_dollars, actual.cost_dollars,
                1e-12 + 1e-9 * std::fabs(actual.cost_dollars));
    // Alternate: keep half the moves, roll back the rest.
    if (i % 2 == 0) inst.state->MoveMaster(v, from);
  }
}

TEST_P(MoveSequenceTest, MoveAndMoveBackRestoresObjective) {
  const PropertyParam& param = GetParam();
  Instance inst(MakeGraph(param.graph_kind),
                MakeEc2Topology(param.num_dcs, Heterogeneity::kMedium),
                MakeConfig(param.model));
  inst.state->ResetDerived(inst.locations);
  const Objective before = inst.state->CurrentObjective();
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(inst.graph.num_vertices()));
    const DcId from = inst.state->master(v);
    const DcId to = static_cast<DcId>(rng.UniformInt(param.num_dcs));
    inst.state->MoveMaster(v, to);
    inst.state->MoveMaster(v, from);
  }
  const Objective after = inst.state->CurrentObjective();
  EXPECT_NEAR(before.transfer_seconds, after.transfer_seconds,
              1e-9 * (1 + before.transfer_seconds));
  EXPECT_NEAR(before.cost_dollars, after.cost_dollars,
              1e-9 * (1 + std::fabs(before.cost_dollars)));
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndGraphs, MoveSequenceTest,
    ::testing::Values(
        PropertyParam{ComputeModel::kHybridCut, "rmat", 8},
        PropertyParam{ComputeModel::kHybridCut, "powerlaw", 8},
        PropertyParam{ComputeModel::kHybridCut, "ring", 4},
        PropertyParam{ComputeModel::kHybridCut, "powerlaw", 3},
        PropertyParam{ComputeModel::kEdgeCut, "rmat", 8},
        PropertyParam{ComputeModel::kEdgeCut, "powerlaw", 4},
        PropertyParam{ComputeModel::kEdgeCut, "ring", 8}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      std::string name =
          info.param.model == ComputeModel::kHybridCut ? "Hybrid" : "EdgeCut";
      name += "_";
      name += info.param.graph_kind;
      name += '_';
      name += std::to_string(info.param.num_dcs);
      name += "dcs";
      return name;
    });

// ---- Explicit placement (vertex-cut) property tests -----------------------

class ExplicitPlacementTest : public ::testing::Test {
 protected:
  ExplicitPlacementTest()
      : inst_(MakeGraphStatic(), MakeEc2Topology(8, Heterogeneity::kMedium),
              MakeConfig()) {
    inst_.state->ResetUnplaced(inst_.locations);
  }

  static Graph MakeGraphStatic() {
    RmatOptions opt;
    opt.num_vertices = 256;
    opt.num_edges = 2048;
    return GenerateRmat(opt);
  }

  static PartitionConfig MakeConfig() {
    PartitionConfig c;
    c.model = ComputeModel::kVertexCut;
    c.workload = Workload::PageRank(10);
    return c;
  }

  Instance inst_;
};

TEST_F(ExplicitPlacementTest, PlaceEdgeSequenceMatchesRebuild) {
  Rng rng(5);
  for (EdgeId e = 0; e < inst_.graph.num_edges(); ++e) {
    inst_.state->PlaceEdge(e, static_cast<DcId>(rng.UniformInt(8)));
  }
  // Re-place a random subset.
  for (int i = 0; i < 500; ++i) {
    const EdgeId e = rng.UniformInt(inst_.graph.num_edges());
    inst_.state->PlaceEdge(e, static_cast<DcId>(rng.UniformInt(8)));
  }
  EXPECT_TRUE(inst_.state->CheckInvariants());
}

TEST_F(ExplicitPlacementTest, EvaluatePlaceEdgeMatchesApply) {
  Rng rng(6);
  EvalScratch scratch;
  for (EdgeId e = 0; e < inst_.graph.num_edges(); ++e) {
    inst_.state->PlaceEdge(e, static_cast<DcId>(rng.UniformInt(8)));
  }
  for (int i = 0; i < 200; ++i) {
    const EdgeId e = rng.UniformInt(inst_.graph.num_edges());
    const DcId to = static_cast<DcId>(rng.UniformInt(8));
    const Objective predicted =
        inst_.state->EvaluatePlaceEdge(e, to, &scratch);
    inst_.state->PlaceEdge(e, to);
    const Objective actual = inst_.state->CurrentObjective();
    EXPECT_NEAR(predicted.transfer_seconds, actual.transfer_seconds,
                1e-12 + 1e-9 * actual.transfer_seconds);
    EXPECT_NEAR(predicted.cost_dollars, actual.cost_dollars,
                1e-12 + 1e-9 * std::fabs(actual.cost_dollars));
  }
}

TEST_F(ExplicitPlacementTest, SetMasterKeepsInvariants) {
  Rng rng(7);
  for (EdgeId e = 0; e < inst_.graph.num_edges(); ++e) {
    inst_.state->PlaceEdge(e, static_cast<DcId>(rng.UniformInt(8)));
  }
  for (int i = 0; i < 200; ++i) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(inst_.graph.num_vertices()));
    inst_.state->SetMaster(v, static_cast<DcId>(rng.UniformInt(8)));
  }
  EXPECT_TRUE(inst_.state->CheckInvariants());
}

TEST_F(ExplicitPlacementTest, UnplacedEdgesContributeNothing) {
  EXPECT_DOUBLE_EQ(inst_.state->TransferSecondsPerIteration(), 0.0);
  EXPECT_DOUBLE_EQ(inst_.state->WanBytesPerIteration(), 0.0);
}

// ---- Self-loops and multi-edges -----------------------------------------

TEST(PartitionStateTest, SelfLoopsAndMultiEdgesKeepInvariants) {
  GraphBuilder b(4);
  b.AddEdge(0, 0);  // self-loop
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);  // multi-edge
  b.AddEdge(1, 0);
  b.AddEdge(2, 3);
  b.AddEdge(3, 3);  // self-loop
  Instance inst(std::move(b).Build(), MakeEc2Topology(4, Heterogeneity::kMedium),
                HybridConfig(/*theta=*/2));
  inst.state->ResetDerived(inst.locations);
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    inst.state->MoveMaster(static_cast<VertexId>(rng.UniformInt(4)),
                           static_cast<DcId>(rng.UniformInt(4)));
  }
  EXPECT_TRUE(inst.state->CheckInvariants());
}

// ---- Misc ---------------------------------------------------------------

TEST(PartitionStateTest, AutoThetaSelectsTopFraction) {
  PowerLawOptions opt;
  opt.num_vertices = 4096;
  opt.num_edges = 1 << 16;
  Graph g = GeneratePowerLaw(opt);
  const uint32_t theta = PartitionState::AutoTheta(g, 0.02);
  uint64_t high = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) >= theta) ++high;
  }
  const double fraction = static_cast<double>(high) / g.num_vertices();
  EXPECT_GT(fraction, 0.0);
  EXPECT_LT(fraction, 0.06);
}

TEST(PartitionStateTest, HybridReplicationBelowVertexCutOnSkewedGraph) {
  // The Fig. 2 phenomenon: hybrid-cut yields a lower replication factor
  // than random vertex-cut on a skewed graph.
  PowerLawOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 1 << 14;
  Graph g = GeneratePowerLaw(opt);
  Topology topo = MakeEc2Topology(8, Heterogeneity::kMedium);
  Rng rng(4);
  std::vector<DcId> locations(g.num_vertices());
  for (auto& l : locations) l = static_cast<DcId>(rng.UniformInt(8));
  std::vector<double> sizes(g.num_vertices(), 1e6);

  // Random vertex-cut.
  PartitionConfig vc;
  vc.model = ComputeModel::kVertexCut;
  PartitionState vc_state(&g, &topo, &locations, &sizes, vc);
  std::vector<DcId> edge_dc(g.num_edges());
  for (auto& dc : edge_dc) dc = static_cast<DcId>(rng.UniformInt(8));
  vc_state.ResetWithPlacement(locations, edge_dc);

  // Hash hybrid-cut.
  PartitionConfig hc;
  hc.model = ComputeModel::kHybridCut;
  hc.theta = PartitionState::AutoTheta(g, 0.02);
  PartitionState hc_state(&g, &topo, &locations, &sizes, hc);
  std::vector<DcId> masters(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    masters[v] = static_cast<DcId>(HashU64(v) % 8);
  }
  hc_state.ResetDerived(masters);

  EXPECT_LT(hc_state.ReplicationFactor(), vc_state.ReplicationFactor());
}

TEST(PartitionStateTest, MasterAndEdgeCountsTrackMoves) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Instance inst(std::move(b).Build(), MakeUniformTopology(2), HybridConfig());
  inst.state->ResetDerived({0, 0, 0});
  EXPECT_EQ(inst.state->MasterCount(0), 3u);
  EXPECT_EQ(inst.state->EdgeCount(0), 2u);
  inst.state->MoveMaster(1, 1);
  EXPECT_EQ(inst.state->MasterCount(0), 2u);
  EXPECT_EQ(inst.state->MasterCount(1), 1u);
  // Low-cut: in-edge (0->1) follows vertex 1's master to DC1.
  EXPECT_EQ(inst.state->EdgeCount(1), 1u);
}

TEST(PartitionStateTest, EdgeCutModelHasNoGatherTraffic) {
  PowerLawOptions opt;
  opt.num_vertices = 512;
  opt.num_edges = 4096;
  PartitionConfig c;
  c.model = ComputeModel::kEdgeCut;
  c.workload = Workload::PageRank(10);
  Instance inst(GeneratePowerLaw(opt), MakeEc2Topology(8, Heterogeneity::kMedium),
                c);
  inst.state->ResetDerived(inst.locations);
  EXPECT_EQ(inst.state->NumHighDegree(), 0u);
  // All traffic must be apply-stage: replication-driven sync only. With
  // no gather, per-iteration WAN equals apply uploads, and moving a
  // vertex with no edges changes nothing but move cost.
  EXPECT_GT(inst.state->WanBytesPerIteration(), 0.0);
}

TEST(PartitionStateTest, VertexCutModelAllHighDegree) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  PartitionConfig c;
  c.model = ComputeModel::kVertexCut;
  Instance inst(std::move(b).Build(), MakeUniformTopology(2), c);
  EXPECT_EQ(inst.state->NumHighDegree(), 3u);
}

// ---- ResetDerived repeats no derive, and every mutator voids that ------

// Compares every observable field of two states, bit for bit.
void ExpectSameState(const PartitionState& a, const PartitionState& b) {
  ASSERT_EQ(a.graph().num_vertices(), b.graph().num_vertices());
  ASSERT_EQ(a.graph().num_edges(), b.graph().num_edges());
  ASSERT_EQ(a.num_dcs(), b.num_dcs());
  EXPECT_EQ(a.masters(), b.masters());
  for (EdgeId e = 0; e < a.graph().num_edges(); ++e) {
    ASSERT_EQ(a.edge_dc(e), b.edge_dc(e)) << "edge " << e;
  }
  for (VertexId v = 0; v < a.graph().num_vertices(); ++v) {
    ASSERT_EQ(a.is_high_degree(v), b.is_high_degree(v)) << "vertex " << v;
    ASSERT_EQ(a.ApplyBytes(v), b.ApplyBytes(v)) << "vertex " << v;
    ASSERT_EQ(a.ReplicaMask(v), b.ReplicaMask(v)) << "vertex " << v;
    ASSERT_EQ(a.GatherMirrorMask(v), b.GatherMirrorMask(v)) << "vertex " << v;
  }
  for (DcId r = 0; r < a.num_dcs(); ++r) {
    EXPECT_EQ(a.MasterCount(r), b.MasterCount(r)) << "dc " << r;
    EXPECT_EQ(a.EdgeCount(r), b.EdgeCount(r)) << "dc " << r;
    EXPECT_EQ(a.ReplicaCountInDc(r), b.ReplicaCountInDc(r)) << "dc " << r;
  }
  EXPECT_EQ(a.TotalReplicaCount(), b.TotalReplicaCount());
  EXPECT_EQ(a.MoveCost(), b.MoveCost());
  EXPECT_EQ(a.WanBytesPerIteration(), b.WanBytesPerIteration());
  EXPECT_EQ(a.CurrentObjective().transfer_seconds,
            b.CurrentObjective().transfer_seconds);
  EXPECT_EQ(a.CurrentObjective().cost_dollars,
            b.CurrentObjective().cost_dollars);
  EXPECT_EQ(a.CurrentObjective().smooth_seconds,
            b.CurrentObjective().smooth_seconds);
  EXPECT_TRUE(a.CheckInvariants());
  EXPECT_TRUE(b.CheckInvariants());
}

// A state derived from `original` (masters away from the initial
// locations, so the Eq. 4 term is live), mutated by one mutator, then
// reset to `original` again: it must equal a cold state reset to it.
class ResetDerivedAfterMutationTest : public ::testing::Test {
 protected:
  ResetDerivedAfterMutationTest()
      : inst_(MakeGraph(), MakeEc2Topology(4, Heterogeneity::kMedium),
              HybridConfig(8)) {
    original_ = inst_.locations;
    for (VertexId v = 0; v < original_.size(); v += 3) {
      original_[v] = static_cast<DcId>((original_[v] + 1) % 4);
    }
    inst_.state->ResetDerived(original_);
  }

  static Graph MakeGraph() {
    PowerLawOptions gen;
    gen.num_vertices = 200;
    gen.num_edges = 1600;
    gen.seed = 9;
    return GeneratePowerLaw(gen);
  }

  std::vector<DcId> EdgeDcs() const {
    std::vector<DcId> edge_dcs(inst_.graph.num_edges());
    for (EdgeId e = 0; e < edge_dcs.size(); ++e) {
      edge_dcs[e] = inst_.state->edge_dc(e);
    }
    return edge_dcs;
  }

  void ExpectColdEqual(const Topology* topology) {
    inst_.state->ResetDerived(original_);
    PartitionState cold(&inst_.graph, topology, &inst_.locations,
                        &inst_.sizes, inst_.state->config());
    cold.ResetDerived(original_);
    ExpectSameState(*inst_.state, cold);
  }

  Instance inst_;
  std::vector<DcId> original_;
};

TEST_F(ResetDerivedAfterMutationTest, MoveMaster) {
  for (VertexId v = 0; v < 40; ++v) {
    inst_.state->MoveMaster(v, static_cast<DcId>((original_[v] + 2) % 4));
  }
  ExpectColdEqual(&inst_.topology);
}

TEST_F(ResetDerivedAfterMutationTest, PlaceEdge) {
  const std::vector<DcId> edge_dcs = EdgeDcs();
  inst_.state->ResetWithPlacement(original_, edge_dcs);
  for (EdgeId e = 0; e < 50; ++e) {
    inst_.state->PlaceEdge(e, static_cast<DcId>((edge_dcs[e] + 1) % 4));
  }
  ExpectColdEqual(&inst_.topology);
}

TEST_F(ResetDerivedAfterMutationTest, SetMaster) {
  const std::vector<DcId> edge_dcs = EdgeDcs();
  inst_.state->ResetWithPlacement(original_, edge_dcs);
  // Away and back: the masters end where they started, the placement
  // stays explicit.
  inst_.state->SetMaster(5, static_cast<DcId>((original_[5] + 1) % 4));
  inst_.state->SetMaster(5, original_[5]);
  ExpectColdEqual(&inst_.topology);
}

TEST_F(ResetDerivedAfterMutationTest, ResetWithPlacement) {
  // Same masters, every edge in DC 0.
  inst_.state->ResetWithPlacement(
      original_, std::vector<DcId>(inst_.graph.num_edges(), 0));
  ExpectColdEqual(&inst_.topology);
}

TEST_F(ResetDerivedAfterMutationTest, ResetUnplaced) {
  inst_.state->ResetUnplaced(original_);
  ExpectColdEqual(&inst_.topology);
}

TEST_F(ResetDerivedAfterMutationTest, UpdateTopology) {
  std::vector<DataCenter> dcs = inst_.topology.dcs();
  for (DataCenter& dc : dcs) {
    dc.uplink_gbps *= 0.7;
    dc.upload_price *= 1.5;
  }
  const Topology degraded(std::move(dcs));
  inst_.state->UpdateTopology(&degraded);
  ExpectColdEqual(&degraded);
}

TEST_F(ResetDerivedAfterMutationTest, RefreshGraph) {
  // Grow the graph in place over the same vertex set, as a streaming
  // session does, then reassign the degree-driven sizes in place.
  const Graph more = MakeGraph();
  GraphBuilder builder(inst_.graph.num_vertices());
  for (EdgeId e = 0; e < inst_.graph.num_edges(); ++e) {
    builder.AddEdge(inst_.graph.GetEdge(e));
  }
  for (EdgeId e = 0; e < more.num_edges(); e += 2) {
    builder.AddEdge(more.EdgeTarget(e), more.EdgeSource(e));
  }
  std::move(builder).BuildInto(&inst_.graph);
  for (VertexId v = 0; v < inst_.graph.num_vertices(); ++v) {
    inst_.sizes[v] = 4096.0 + 512.0 * inst_.graph.Degree(v);
  }
  inst_.state->RefreshGraph();
  EXPECT_EQ(inst_.state->graph().num_edges(), 2400u);
  ExpectColdEqual(&inst_.topology);
}

}  // namespace
}  // namespace rlcut
