#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/topology.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "partition/plan_delta.h"
#include "rlcut/trainer.h"

namespace rlcut {
namespace {

// ---- PlanReplica ----------------------------------------------------

TEST(PlanReplicaTest, ApplyCommitsMovesAndAdvancesVersion) {
  PlanReplica replica({0, 1, 2, 0}, /*num_dcs=*/3);
  EXPECT_EQ(replica.version(), 0u);

  PlanDelta delta;
  delta.base_version = 0;
  delta.moves.push_back(PlanMove{0, 0, 2});
  delta.moves.push_back(PlanMove{3, 0, 1});
  ASSERT_TRUE(replica.Apply(delta).ok());
  EXPECT_EQ(replica.version(), 1u);
  EXPECT_EQ(replica.masters(), (std::vector<DcId>{2, 1, 2, 1}));

  // An empty delta still advances the version (one sync interval).
  PlanDelta empty;
  empty.base_version = 1;
  ASSERT_TRUE(replica.Apply(empty).ok());
  EXPECT_EQ(replica.version(), 2u);
}

TEST(PlanReplicaTest, FromChainsThroughDuplicateVertices) {
  PlanReplica replica({0, 0}, /*num_dcs=*/3);
  PlanDelta delta;
  delta.base_version = 0;
  // Vertex 0 moves twice within one delta; the second move's `from` is
  // the first move's destination, not the pre-delta master.
  delta.moves.push_back(PlanMove{0, 0, 1});
  delta.moves.push_back(PlanMove{0, 1, 2});
  ASSERT_TRUE(replica.Apply(delta).ok());
  EXPECT_EQ(replica.master(0), 2);
}

TEST(PlanReplicaTest, RejectedDeltaLeavesReplicaUntouched) {
  PlanReplica replica({0, 1}, /*num_dcs=*/2);

  {
    // Stale base version.
    PlanDelta delta;
    delta.base_version = 5;
    const Status s = replica.Apply(delta);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }
  {
    // Vertex outside the replica.
    PlanDelta delta;
    delta.moves.push_back(PlanMove{9, 0, 1});
    EXPECT_EQ(replica.Apply(delta).code(), StatusCode::kOutOfRange);
  }
  {
    // Unknown destination DC.
    PlanDelta delta;
    delta.moves.push_back(PlanMove{0, 0, 7});
    EXPECT_EQ(replica.Apply(delta).code(), StatusCode::kOutOfRange);
  }
  {
    // Diverged `from`: a valid first move, then one whose from is wrong.
    // Nothing applies — not even the valid prefix.
    PlanDelta delta;
    delta.moves.push_back(PlanMove{0, 0, 1});
    delta.moves.push_back(PlanMove{1, 0, 1});  // replica has 1 at DC 1
    EXPECT_EQ(replica.Apply(delta).code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(replica.version(), 0u);
  EXPECT_EQ(replica.masters(), (std::vector<DcId>{0, 1}));
}

TEST(PlanReplicaTest, FingerprintTracksRandomDeltaChains) {
  constexpr int kDcs = 4;
  constexpr VertexId kVertices = 64;
  Rng rng(17);
  std::vector<DcId> masters(kVertices);
  for (DcId& dc : masters) dc = static_cast<DcId>(rng.UniformInt(kDcs));
  PlanReplica replica(masters, kDcs);
  ASSERT_EQ(replica.Fingerprint(), MastersFingerprint(replica.masters()));

  for (int round = 0; round < 200; ++round) {
    if (round % 50 == 49) {
      // Resync onto an unrelated state; the digest restarts from it.
      PlanSnapshot snapshot;
      snapshot.version = replica.version() + 3;
      snapshot.num_dcs = kDcs;
      snapshot.masters.resize(kVertices - round / 50);
      for (DcId& dc : snapshot.masters) {
        dc = static_cast<DcId>(rng.UniformInt(kDcs));
      }
      ASSERT_TRUE(replica.InstallSnapshot(snapshot).ok());
      ASSERT_EQ(replica.Fingerprint(), MastersFingerprint(snapshot.masters));
      continue;
    }
    PlanDelta delta;
    delta.base_version = replica.version();
    std::vector<DcId> expected = replica.masters();
    const int num_moves = static_cast<int>(rng.UniformInt(8));
    for (int m = 0; m < num_moves; ++m) {
      // Every other move re-moves the previous vertex, so deltas often
      // carry a vertex twice.
      const VertexId v =
          (m % 2 == 1) ? delta.moves.back().vertex
                       : static_cast<VertexId>(rng.UniformInt(expected.size()));
      const DcId to = static_cast<DcId>(rng.UniformInt(kDcs));
      delta.moves.push_back(PlanMove{v, expected[v], to});
      expected[v] = to;
    }
    ASSERT_TRUE(replica.Apply(delta).ok()) << "round " << round;
    ASSERT_EQ(replica.masters(), expected) << "round " << round;
    ASSERT_EQ(replica.Fingerprint(), MastersFingerprint(expected))
        << "round " << round;
  }
}

TEST(PlanReplicaTest, RejectionAtLastMoveRestoresMastersAndFingerprint) {
  PlanReplica replica({0, 1, 2}, /*num_dcs=*/3);
  PlanDelta advance;
  advance.moves = {{1, 1, 0}};
  ASSERT_TRUE(replica.Apply(advance).ok());
  const std::vector<DcId> masters = replica.masters();
  const uint64_t version = replica.version();
  const uint64_t fingerprint = replica.Fingerprint();

  // Vertex 0 moves twice and vertex 2 once before the final move, whose
  // `from` is stale: the whole applied prefix must be undone.
  PlanDelta delta;
  delta.base_version = version;
  delta.moves = {{0, 0, 1}, {2, 2, 0}, {0, 1, 2}, {0, 1, 0}};
  EXPECT_EQ(replica.Apply(delta).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(replica.masters(), masters);
  EXPECT_EQ(replica.version(), version);
  EXPECT_EQ(replica.Fingerprint(), fingerprint);

  // Same prefix, last move to an unknown DC.
  delta.moves.back() = PlanMove{0, 2, 9};
  EXPECT_EQ(replica.Apply(delta).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(replica.masters(), masters);
  EXPECT_EQ(replica.version(), version);
  EXPECT_EQ(replica.Fingerprint(), fingerprint);
}

TEST(PlanReplicaTest, FingerprintChangesWithAnySingleMaster) {
  constexpr int kDcs = 5;
  Rng rng(3);
  std::vector<DcId> masters(40);
  for (DcId& dc : masters) dc = static_cast<DcId>(rng.UniformInt(kDcs));
  const uint64_t base = MastersFingerprint(masters);
  for (size_t v = 0; v < masters.size(); ++v) {
    for (DcId dc = 0; dc < kDcs; ++dc) {
      if (dc == masters[v]) continue;
      std::vector<DcId> changed = masters;
      changed[v] = dc;
      EXPECT_NE(MastersFingerprint(changed), base)
          << "vertex " << v << " to DC " << dc;
    }
  }
}

TEST(PlanReplicaTest, DefaultReplicaFingerprintIsTheEmptyDigest) {
  EXPECT_EQ(PlanReplica().Fingerprint(), MastersFingerprint({}));
}

// ---- Options validation ---------------------------------------------

TEST(ValidateRLCutOptionsTest, FlagsEachOutOfRangeField) {
  const RLCutOptions valid;
  EXPECT_TRUE(ValidateRLCutOptions(valid).ok());

  auto expect_invalid = [](RLCutOptions options) {
    const Status s = ValidateRLCutOptions(options);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  };
  {
    RLCutOptions o;
    o.max_steps = 0;
    expect_invalid(o);
  }
  {
    RLCutOptions o;
    o.batch_size = -1;
    expect_invalid(o);
  }
  {
    RLCutOptions o;
    o.num_threads = -2;
    expect_invalid(o);
  }
  {
    RLCutOptions o;
    o.checkpoint_every_steps = -1;
    expect_invalid(o);
  }
  {
    // Auto-checkpointing enabled with nowhere to write.
    RLCutOptions o;
    o.checkpoint_every_steps = 2;
    o.checkpoint_path.clear();
    expect_invalid(o);
  }
}

TEST(ValidateRLCutOptionsTest, CreateReturnsStatusInsteadOfCrashing) {
  RLCutOptions bad;
  bad.max_steps = -5;
  const Result<std::unique_ptr<RLCutTrainer>> r = RLCutTrainer::Create(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  RLCutOptions good;
  good.num_threads = 2;
  Result<std::unique_ptr<RLCutTrainer>> trainer = RLCutTrainer::Create(good);
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();
  EXPECT_EQ((*trainer)->num_threads(), 2u);
}

TEST(ValidateRLCutOptionsTest, ConstructorClampsAndResolvesDefaults) {
  RLCutOptions options;
  options.max_steps = -1;
  options.batch_size = 0;
  options.num_threads = 0;
  const RLCutTrainer trainer(options);
  EXPECT_EQ(trainer.options().max_steps, 1);
  EXPECT_EQ(trainer.options().batch_size, 1);
  EXPECT_EQ(trainer.num_threads(), DefaultThreadCount());
}

// ---- Trainer-level determinism smoke tests --------------------------
// The exhaustive version of these lanes is the thread audit lane
// (check/thread_oracle.cc, `rlcut_audit --lane=thread`); these keep a
// fast canary in the unit suite.

class TeamTrainerTest : public ::testing::Test {
 protected:
  TeamTrainerTest() : topology_(MakeEc2Topology(4, Heterogeneity::kMedium)) {
    PowerLawOptions opt;
    opt.num_vertices = 192;
    opt.num_edges = 1536;
    graph_ = GeneratePowerLaw(opt);
    GeoLocatorOptions geo;
    geo.num_dcs = 4;
    locations_ = AssignGeoLocations(graph_, geo);
    sizes_ = AssignInputSizes(graph_);
    config_.model = ComputeModel::kHybridCut;
    config_.theta = PartitionState::AutoTheta(graph_);
    config_.workload = Workload::PageRank();
  }

  RLCutOptions Options(int num_threads) const {
    RLCutOptions options;
    options.max_steps = 4;
    options.batch_size = 16;
    options.num_threads = num_threads;
    options.seed = 17;
    options.agent_visit_budget =
        static_cast<int64_t>(graph_.num_vertices()) * 4;
    options.convergence_epsilon = 1e-12;
    return options;
  }

  std::vector<DcId> TrainedMasters(const RLCutOptions& options) const {
    auto state = std::make_unique<PartitionState>(
        &graph_, &topology_, &locations_, &sizes_, config_);
    state->ResetDerived(locations_);
    std::vector<VertexId> all(graph_.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    AutomatonPool pool(graph_.num_vertices(), topology_.num_dcs(), options);
    RLCutTrainer(options).Train(state.get(), std::move(all), &pool);
    return state->masters();
  }

  Topology topology_;
  Graph graph_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionConfig config_;
};

TEST_F(TeamTrainerTest, TrajectoryIsInvariantToThreadCount) {
  for (const ActionSelection selection :
       {ActionSelection::kUcbBlend, ActionSelection::kProbability}) {
    RLCutOptions reference_options = Options(/*num_threads=*/1);
    reference_options.selection = selection;
    const std::vector<DcId> reference = TrainedMasters(reference_options);
    for (const int threads : {2, 5}) {
      RLCutOptions options = reference_options;
      options.num_threads = threads;
      EXPECT_EQ(TrainedMasters(options), reference)
          << "threads=" << threads
          << " selection=" << static_cast<int>(selection);
    }
  }
}

TEST_F(TeamTrainerTest, StragglerMitigationNeverAffectsTheTrajectory) {
  // Degree-mass chunks and equal-count chunks split the same batch
  // differently; the trajectory must not notice.
  RLCutOptions with = Options(/*num_threads=*/3);
  RLCutOptions without = with;
  without.straggler_mitigation = false;
  EXPECT_EQ(TrainedMasters(with), TrainedMasters(without));
}

}  // namespace
}  // namespace rlcut
