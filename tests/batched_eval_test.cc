// Batch-vs-single equivalence for the all-destination what-if API:
// EvaluateMoveAll / EvaluatePlaceEdgeAll must agree with a loop of
// single-destination EvaluateMove / EvaluatePlaceEdge calls on every
// compute model, including high- and low-degree movers, self-loops,
// the from==to entry, and re-priced (UpdateTopology) states. Both run
// one fold (the single-destination evaluators restrict it to their
// destination), so they agree bit for bit on every instance, the
// realistic non-dyadic fixtures here included.

#include <cstdlib>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "cloud/topology.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "partition/partition_state.h"
#include "rlcut/rlcut_partitioner.h"
#include "rlcut/trainer.h"

namespace rlcut {
namespace {

void ExpectSame(const Objective& batched, const Objective& single,
                const char* what) {
  EXPECT_EQ(batched.transfer_seconds, single.transfer_seconds) << what;
  EXPECT_EQ(batched.cost_dollars, single.cost_dollars) << what;
  EXPECT_EQ(batched.smooth_seconds, single.smooth_seconds) << what;
}

class BatchedEvalTest : public ::testing::Test {
 protected:
  BatchedEvalTest() : topology_(MakeEc2Topology(6, Heterogeneity::kHigh)) {
    PowerLawOptions opt;
    opt.num_vertices = 192;
    opt.num_edges = 1280;
    opt.seed = 11;
    graph_ = GeneratePowerLaw(opt);
    GeoLocatorOptions geo;
    geo.num_dcs = topology_.num_dcs();
    locations_ = AssignGeoLocations(graph_, geo);
    sizes_ = AssignInputSizes(graph_);
  }

  PartitionState MakeState(ComputeModel model, uint32_t theta) const {
    PartitionConfig config;
    config.model = model;
    config.theta = theta;
    PartitionState state(&graph_, &topology_, &locations_, &sizes_,
                         config);
    return state;
  }

  // Every vertex, every destination: the batched pass must match the
  // single-destination evaluator, and neither may mutate the state.
  void CheckAllMoves(PartitionState* state, const char* what) {
    const int num_dcs = topology_.num_dcs();
    EvalScratch scratch;
    EvalScratch batch_scratch;
    std::vector<Objective> batched(num_dcs);
    const Objective current = state->CurrentObjective();
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      state->EvaluateMoveAll(v, &batch_scratch, batched.data());
      for (DcId to = 0; to < num_dcs; ++to) {
        const Objective single = state->EvaluateMove(v, to, &scratch);
        ExpectSame(batched[to], single, what);
      }
      // The from==to entry is the current objective by contract.
      ExpectSame(batched[state->master(v)], current, what);
    }
    ExpectSame(state->CurrentObjective(), current, what);
  }

  Graph graph_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
};

TEST_F(BatchedEvalTest, HybridCutMatchesSingleEvaluator) {
  // theta chosen so the fixture has both high- and low-degree movers.
  PartitionState state =
      MakeState(ComputeModel::kHybridCut, PartitionState::AutoTheta(graph_));
  state.ResetDerived(locations_);
  bool saw_high = false;
  bool saw_low = false;
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    (state.is_high_degree(v) ? saw_high : saw_low) = true;
  }
  EXPECT_TRUE(saw_high);
  EXPECT_TRUE(saw_low);
  CheckAllMoves(&state, "hybrid natural");

  // Also from a scrambled placement (mirrors everywhere).
  Rng rng(5);
  for (int move = 0; move < 300; ++move) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(graph_.num_vertices()));
    state.MoveMaster(
        v, static_cast<DcId>(rng.UniformInt(topology_.num_dcs())));
  }
  CheckAllMoves(&state, "hybrid scrambled");
}

TEST_F(BatchedEvalTest, EdgeCutMatchesSingleEvaluator) {
  PartitionState state = MakeState(ComputeModel::kEdgeCut, 100);
  state.ResetDerived(locations_);
  CheckAllMoves(&state, "edge-cut");
}

TEST_F(BatchedEvalTest, SelfLoopsAndMultiEdgesMatch) {
  GraphBuilder b(6);
  b.AddEdge(0, 0);  // self-loop on the mover
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);  // parallel edge
  b.AddEdge(1, 2);
  b.AddEdge(3, 0);
  b.AddEdge(4, 5);
  b.AddEdge(5, 5);  // self-loop away from the mover
  Graph graph = std::move(b).Build();
  Topology topology = MakeEc2Topology(4, Heterogeneity::kMedium);
  std::vector<DcId> locations = {0, 1, 2, 3, 0, 1};
  std::vector<double> sizes(6, 1e6);
  for (uint32_t theta : {1u, 100u}) {
    PartitionConfig config;
    config.model = ComputeModel::kHybridCut;
    config.theta = theta;
    PartitionState state(&graph, &topology, &locations, &sizes, config);
    state.ResetDerived(locations);
    EvalScratch scratch;
    EvalScratch batch_scratch;
    std::vector<Objective> batched(topology.num_dcs());
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      state.EvaluateMoveAll(v, &batch_scratch, batched.data());
      for (DcId to = 0; to < topology.num_dcs(); ++to) {
        ExpectSame(batched[to], state.EvaluateMove(v, to, &scratch),
                   "self-loop fixture");
      }
    }
  }
}

TEST_F(BatchedEvalTest, VertexCutPlaceEdgeAllMatchesSingleEvaluator) {
  PartitionState state = MakeState(ComputeModel::kVertexCut, 100);
  state.ResetUnplaced(locations_);
  Rng rng(7);
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    state.PlaceEdge(
        e, static_cast<DcId>(rng.UniformInt(topology_.num_dcs())));
  }
  const int num_dcs = topology_.num_dcs();
  EvalScratch scratch;
  EvalScratch batch_scratch;
  std::vector<Objective> batched(num_dcs);
  const Objective current = state.CurrentObjective();
  for (EdgeId e = 0; e < graph_.num_edges(); e += 3) {
    state.EvaluatePlaceEdgeAll(e, &batch_scratch, batched.data());
    for (DcId to = 0; to < num_dcs; ++to) {
      ExpectSame(batched[to], state.EvaluatePlaceEdge(e, to, &scratch),
                 "vertex-cut");
    }
    ExpectSame(batched[state.edge_dc(e)], current, "vertex-cut current");
  }
}

TEST_F(BatchedEvalTest, MatchesAfterTopologyUpdate) {
  PartitionState state =
      MakeState(ComputeModel::kHybridCut, PartitionState::AutoTheta(graph_));
  state.ResetDerived(locations_);
  Rng rng(9);
  for (int move = 0; move < 150; ++move) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(graph_.num_vertices()));
    state.MoveMaster(
        v, static_cast<DcId>(rng.UniformInt(topology_.num_dcs())));
  }
  Topology degraded = MakeEc2Topology(6, Heterogeneity::kLow);
  state.UpdateTopology(&degraded);
  CheckAllMoves(&state, "post-update");
}

TEST_F(BatchedEvalTest, KeptMoveFoldsAndCommitsLikeAFreshOne) {
  // Two identical states: `kept` keeps each mover's collection before
  // moving other vertices (neighbors included), `fresh` only makes the
  // same moves. Folding and committing the kept collection must then
  // match fresh evaluation and MoveMaster bit for bit on this
  // non-dyadic fixture.
  const uint32_t theta = PartitionState::AutoTheta(graph_);
  PartitionState kept = MakeState(ComputeModel::kHybridCut, theta);
  PartitionState fresh = MakeState(ComputeModel::kHybridCut, theta);
  kept.ResetDerived(locations_);
  fresh.ResetDerived(locations_);
  const int num_dcs = topology_.num_dcs();
  EvalScratch scratch;
  EvalScratch fresh_scratch;
  MoveArena arena;
  std::vector<Objective> batched(num_dcs);
  Rng rng(13);
  for (int round = 0; round < 200; ++round) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(graph_.num_vertices()));
    arena.Clear();
    const KeptMove move =
        kept.EvaluateMoveAll(v, &scratch, batched.data(), &arena);
    auto neighbors = graph_.InNeighbors(v);
    for (int k = 0; k < 3; ++k) {
      VertexId u =
          static_cast<VertexId>(rng.UniformInt(graph_.num_vertices()));
      if (!neighbors.empty() && rng.Bernoulli(0.5)) {
        u = neighbors[rng.UniformInt(neighbors.size())];
      }
      if (u == v) continue;
      const DcId to = static_cast<DcId>(rng.UniformInt(num_dcs));
      kept.MoveMaster(u, to);
      fresh.MoveMaster(u, to);
    }
    for (DcId to = 0; to < num_dcs; ++to) {
      ExpectSame(kept.EvaluateKeptMove(move, to, &scratch),
                 fresh.EvaluateMove(v, to, &fresh_scratch), "kept fold");
    }
    const DcId to = static_cast<DcId>(rng.UniformInt(num_dcs));
    kept.CommitKeptMove(move, to);
    fresh.MoveMaster(v, to);
    ExpectSame(kept.CurrentObjective(), fresh.CurrentObjective(),
               "kept commit");
  }
  EXPECT_EQ(kept.masters(), fresh.masters());
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    ASSERT_EQ(kept.edge_dc(e), fresh.edge_dc(e)) << "edge " << e;
  }
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    ASSERT_EQ(kept.ReplicaMask(v), fresh.ReplicaMask(v)) << "vertex " << v;
  }
  EXPECT_TRUE(kept.CheckInvariants());
}

TEST(BatchedEvalTrainerTest, TrainerBatchedPathPassesInvariantAudit) {
  // End-to-end: the trainer's scoring now goes through EvaluateMoveAll;
  // RLCUT_DEBUG_INVARIANTS=2 audits every other step against a cold
  // rebuild, so a batched-path bug that corrupted state would abort.
  PowerLawOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 2048;
  opt.seed = 21;
  Graph graph = GeneratePowerLaw(opt);
  Topology topology = MakeEc2Topology(5, Heterogeneity::kMedium);
  GeoLocatorOptions geo;
  geo.num_dcs = topology.num_dcs();
  std::vector<DcId> locations = AssignGeoLocations(graph, geo);
  std::vector<double> sizes = AssignInputSizes(graph);
  PartitionConfig config;
  config.theta = PartitionState::AutoTheta(graph);
  PartitionState state(&graph, &topology, &locations, &sizes, config);
  state.ResetDerived(locations);

  ASSERT_EQ(::setenv("RLCUT_DEBUG_INVARIANTS", "2", 1), 0);
  EXPECT_TRUE(check::DebugInvariantsEnabled());
  RLCutOptions options;
  options.max_steps = 4;
  options.batch_size = 24;
  options.num_threads = 2;
  options.seed = 19;
  RLCutTrainer trainer(options);
  const TrainResult result = trainer.Train(&state);
  ::unsetenv("RLCUT_DEBUG_INVARIANTS");
  EXPECT_FALSE(result.steps.empty());
  EXPECT_TRUE(state.CheckInvariants());
}

}  // namespace
}  // namespace rlcut
