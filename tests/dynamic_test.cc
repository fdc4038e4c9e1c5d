// Sessions over an evolving graph (Exp#5): insert and delete windows
// through the RLCut, Spinner and Leopard sessions, and topology updates
// through RLCutSession::UpdateTopology.

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/leopard.h"
#include "baselines/spinner.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "rlcut/session.h"

namespace rlcut {
namespace {

const MigrationBudget kUnlimited = MigrationBudget::Unlimited();

class DynamicTest : public ::testing::Test {
 protected:
  DynamicTest() : topology_(MakeEc2Topology(4, Heterogeneity::kMedium)) {
    PowerLawOptions opt;
    opt.num_vertices = 512;
    opt.num_edges = 4096;
    full_graph_ = GeneratePowerLaw(opt);
    split_ = SplitEdges(full_graph_, 0.7, 13);
    locations_ = [&] {
      GeoLocatorOptions geo;
      geo.num_dcs = 4;
      return AssignGeoLocations(full_graph_, geo);
    }();
    GraphBuilder builder(full_graph_.num_vertices());
    builder.AddEdges(split_.initial_edges);
    initial_graph_ = std::move(builder).Build();
    sizes_ = AssignInputSizes(initial_graph_);
    ctx_.graph = &initial_graph_;
    ctx_.topology = &topology_;
    ctx_.locations = &locations_;
    ctx_.input_sizes = &sizes_;
    ctx_.theta = PartitionState::AutoTheta(full_graph_);
    ctx_.seed = 3;
  }

  // An RLCut session after its initial (full) pass.
  std::unique_ptr<RLCutSession> OpenRLCut(double window_budget) {
    RLCutSessionOptions options;
    options.initial.max_steps = 3;
    options.initial.batch_size = 16;
    options.initial.num_threads = 2;
    options.incremental = options.initial;
    options.incremental.t_opt_seconds = window_budget;
    std::unique_ptr<RLCutSession> session =
        RLCutSession::Open(ctx_, options).value();
    EXPECT_TRUE(session->MaybeReoptimize(kUnlimited).ok());
    return session;
  }

  // A Spinner session after its initial (full) pass.
  std::unique_ptr<SpinnerSession> OpenSpinner() {
    SpinnerOptions opt;
    opt.max_iterations = 10;
    std::unique_ptr<SpinnerSession> session =
        SpinnerSession::Open(ctx_, opt).value();
    EXPECT_TRUE(session->MaybeReoptimize(kUnlimited).ok());
    return session;
  }

  // A Leopard session after its initial pass placed every edge.
  std::unique_ptr<LeopardSession> OpenLeopard() {
    std::unique_ptr<LeopardSession> session =
        LeopardSession::Open(ctx_).value();
    EXPECT_TRUE(session->MaybeReoptimize(kUnlimited).ok());
    return session;
  }

  // The first `count` remaining edges, after skipping `skip`.
  std::vector<Edge> Window(size_t count, size_t skip = 0) const {
    return std::vector<Edge>(split_.remaining_edges.begin() + skip,
                             split_.remaining_edges.begin() + skip + count);
  }

  // Inserts `window` and re-optimizes; returns the applied edge count.
  static uint64_t Insert(PartitioningSession* session,
                         const std::vector<Edge>& window) {
    const uint64_t applied =
        session->ApplyDelta(MicroBatchAt(window, SimTime(0))).value()
            .edges_applied;
    EXPECT_TRUE(session->MaybeReoptimize(kUnlimited).ok());
    return applied;
  }

  Topology topology_;
  Graph full_graph_;
  GraphSplit split_;
  std::vector<DcId> locations_;
  Graph initial_graph_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

TEST_F(DynamicTest, RLCutDriverInitializesAndAdapts) {
  RLCutSessionOptions options;
  options.initial.max_steps = 3;
  options.initial.batch_size = 16;
  options.initial.num_threads = 2;
  options.incremental = options.initial;
  std::unique_ptr<RLCutSession> session =
      RLCutSession::Open(ctx_, options).value();
  const ReoptimizeResult init = session->MaybeReoptimize(kUnlimited).value();
  EXPECT_GT(init.overhead_seconds, 0.0);
  EXPECT_EQ(session->live_state()->graph().num_edges(),
            split_.initial_edges.size());

  const ApplyResult applied =
      session->ApplyDelta(MicroBatchAt(Window(200), SimTime(0))).value();
  EXPECT_EQ(applied.edges_applied, 200u);
  const ReoptimizeResult window = session->MaybeReoptimize(kUnlimited).value();
  EXPECT_TRUE(window.reoptimized);
  EXPECT_GT(window.overhead_seconds, 0.0);
  EXPECT_EQ(session->live_state()->graph().num_edges(),
            split_.initial_edges.size() + 200);
  EXPECT_TRUE(session->live_state()->CheckInvariants());
}

TEST_F(DynamicTest, SpinnerDriverInitializesAndAdapts) {
  auto session = OpenSpinner();
  EXPECT_EQ(Insert(session.get(), Window(200)), 200u);
  EXPECT_GT(session->live_state()->ReplicationFactor(), 0.0);
  EXPECT_TRUE(session->live_state()->CheckInvariants());
}

TEST_F(DynamicTest, MastersCarriedAcrossWindows) {
  auto session = OpenRLCut(/*window_budget=*/0.0001);  // near-zero
  const std::vector<DcId> before = session->live_state()->masters();
  // With an effectively zero adaptation budget almost nothing can move;
  // carried masters must dominate.
  Insert(session.get(), Window(50));
  const std::vector<DcId>& after = session->live_state()->masters();
  uint64_t same = 0;
  for (VertexId v = 0; v < full_graph_.num_vertices(); ++v) {
    if (before[v] == after[v]) ++same;
  }
  EXPECT_GT(same, full_graph_.num_vertices() * 9 / 10);
}

TEST_F(DynamicTest, MultipleWindowsAccumulateEdges) {
  auto session = OpenRLCut(0.2);
  uint64_t expected = split_.initial_edges.size();
  for (int w = 0; w < 3; ++w) {
    Insert(session.get(), Window(100, w * 100));
    expected += 100;
    EXPECT_EQ(session->live_state()->graph().num_edges(), expected);
  }
}

TEST_F(DynamicTest, RemoveWindowDeletesEdges) {
  auto session = OpenRLCut(0.2);
  const uint64_t before = session->num_edges();
  std::vector<Edge> to_remove(split_.initial_edges.begin(),
                              split_.initial_edges.begin() + 100);
  const ApplyResult removed = session->RemoveEdges(to_remove).value();
  EXPECT_EQ(removed.edges_applied, 100u);
  EXPECT_TRUE(session->MaybeReoptimize(kUnlimited).value().reoptimized);
  EXPECT_EQ(session->live_state()->graph().num_edges(), before - 100);
  EXPECT_TRUE(session->live_state()->CheckInvariants());
}

TEST_F(DynamicTest, RemoveWindowIgnoresMissingEdges) {
  auto session = OpenSpinner();
  const uint64_t before = session->num_edges();
  // Candidate removals from the *remaining* pool; a multigraph can
  // duplicate (src,dst) pairs across the split, so compute how many of
  // these actually exist in the initial edges and expect exactly that
  // many removals.
  const std::vector<Edge> missing = Window(50);
  auto key = [](const Edge& e) {
    return (static_cast<uint64_t>(e.src) << 32) | e.dst;
  };
  std::multiset<uint64_t> present;
  for (const Edge& e : split_.initial_edges) present.insert(key(e));
  uint64_t expected_removed = 0;
  std::multiset<uint64_t> asked;
  for (const Edge& e : missing) asked.insert(key(e));
  for (auto it = asked.begin(); it != asked.end();) {
    const uint64_t k = *it;
    const uint64_t want = asked.count(k);
    expected_removed += std::min<uint64_t>(want, present.count(k));
    it = asked.upper_bound(k);
  }
  const ApplyResult removed = session->RemoveEdges(missing).value();
  EXPECT_EQ(removed.edges_applied, expected_removed);
  EXPECT_EQ(session->live_state()->graph().num_edges(),
            before - expected_removed);
}

TEST_F(DynamicTest, InsertThenRemoveRestoresEdgeCount) {
  auto session = OpenRLCut(0.1);
  const uint64_t before = session->num_edges();
  const std::vector<Edge> window = Window(200);
  Insert(session.get(), window);
  ASSERT_TRUE(session->RemoveEdges(window).ok());
  ASSERT_TRUE(session->MaybeReoptimize(kUnlimited).ok());
  EXPECT_EQ(session->live_state()->graph().num_edges(), before);
}

TEST_F(DynamicTest, LeopardDriverInitializesAndAdapts) {
  auto session = OpenLeopard();
  // Every edge must be placed after the initial partitioning.
  const PartitionState* state = session->live_state();
  for (EdgeId e = 0; e < state->graph().num_edges(); ++e) {
    EXPECT_NE(state->edge_dc(e), kNoDc);
  }
  EXPECT_EQ(Insert(session.get(), Window(200)), 200u);
  state = session->live_state();
  for (EdgeId e = 0; e < state->graph().num_edges(); ++e) {
    EXPECT_NE(state->edge_dc(e), kNoDc);
  }
  EXPECT_TRUE(state->CheckInvariants());
}

TEST_F(DynamicTest, LeopardCarriesPlacementAcrossWindows) {
  auto session = OpenLeopard();
  // Every placed edge, as (src, dst, DC) with multiplicity.
  auto placements = [&] {
    const PartitionState& state = *session->live_state();
    std::multiset<std::tuple<VertexId, VertexId, DcId>> out;
    for (EdgeId e = 0; e < state.graph().num_edges(); ++e) {
      out.emplace(state.graph().EdgeSource(e), state.graph().EdgeTarget(e),
                  state.edge_dc(e));
    }
    return out;
  };
  // Record the WAN of the adapted layout, then insert a tiny window:
  // carried placement means the layout quality cannot collapse, and
  // every edge placed before the window keeps its DC across the rebuild.
  const double wan_before = session->live_state()->WanBytesPerIteration();
  const auto before = placements();
  Insert(session.get(), Window(10));
  const double wan_after = session->live_state()->WanBytesPerIteration();
  EXPECT_LT(wan_after, wan_before * 1.2);
  const auto after = placements();
  EXPECT_TRUE(std::includes(after.begin(), after.end(), before.begin(),
                            before.end()));
}

TEST_F(DynamicTest, LeopardReplicationStaysBelowRandom) {
  auto session = OpenLeopard();
  // Replica-affinity placement keeps lambda well below the DC count.
  EXPECT_LT(session->live_state()->ReplicationFactor(), 3.0);
}

TEST_F(DynamicTest, SetTopologyRepricesWithoutMovingMasters) {
  auto session = OpenRLCut(0.2);
  const std::vector<DcId> before = session->live_state()->masters();
  const double transfer_before =
      session->live_state()->TransferSecondsPerIteration();

  // Halve every DC's bandwidth: pure re-pricing, no adaptation.
  TopologySchedule schedule(
      topology_, {[&] {
        TopologyEvent e;
        e.dc = kAllDcs;
        e.kind = TopologyEventKind::kBandwidthScale;
        e.uplink_factor = 0.5;
        e.downlink_factor = 0.5;
        return e;
      }()});
  ASSERT_TRUE(session->UpdateTopology(schedule.EffectiveAt(0)).ok());
  const PartitionState& state = *session->live_state();
  EXPECT_EQ(state.masters(), before);
  EXPECT_TRUE(state.CheckInvariants());
  // Half the bandwidth means exactly twice the transfer time.
  EXPECT_NEAR(state.TransferSecondsPerIteration(), 2.0 * transfer_before,
              1e-9 * transfer_before);
}

TEST_F(DynamicTest, UpdateTopologyBelowThresholdOnlyReprices) {
  auto session = OpenRLCut(0.2);
  const std::vector<DcId> before = session->live_state()->masters();

  // A 1% drift stays under the 5% default trigger threshold.
  TopologySchedule schedule(topology_, {[&] {
    TopologyEvent e;
    e.dc = 0;
    e.kind = TopologyEventKind::kBandwidthScale;
    e.uplink_factor = 0.99;
    e.downlink_factor = 0.99;
    return e;
  }()});
  const TopologyUpdateResult result =
      session->UpdateTopology(schedule.EffectiveAt(0)).value();
  EXPECT_NEAR(result.drift, 0.01, 1e-9);
  EXPECT_EQ(result.affected_marked, 0u);
  // Nothing marked: the next re-optimization has nothing to adapt.
  EXPECT_FALSE(session->MaybeReoptimize(kUnlimited).value().reoptimized);
  EXPECT_EQ(session->live_state()->masters(), before);
}

TEST_F(DynamicTest, UpdateTopologyMarksReplicatedVerticesForRetraining) {
  auto session = OpenRLCut(0.2);
  const TopologySchedule schedule = MakeBrownoutSchedule(
      topology_, /*dc=*/0, /*start_step=*/0, /*end_step=*/100,
      /*bandwidth_factor=*/0.25);
  const TopologyUpdateResult result =
      session->UpdateTopology(schedule.EffectiveAt(0)).value();
  EXPECT_NEAR(result.drift, 0.75, 1e-9);
  // Every vertex with a replica in the browned-out DC is marked.
  uint64_t replicated = 0;
  session->live_state()->ForEachVertexWithReplicaIn(
      uint64_t{1}, [&](VertexId) { ++replicated; });
  EXPECT_GT(result.affected_marked, 0u);
  EXPECT_EQ(result.affected_marked, replicated);
  // The next re-optimization trains exactly the marked vertices.
  const ReoptimizeResult reopt = session->MaybeReoptimize(kUnlimited).value();
  EXPECT_TRUE(reopt.reoptimized);
  EXPECT_EQ(reopt.trained_vertices, result.affected_marked);
  EXPECT_TRUE(session->live_state()->CheckInvariants());

  // Restoring the base topology is itself a drift event; it marks the
  // vertices still replicated in the restored DC.
  const TopologyUpdateResult back =
      session->UpdateTopology(schedule.EffectiveAt(100)).value();
  EXPECT_GT(back.drift, 0.05);
  replicated = 0;
  session->live_state()->ForEachVertexWithReplicaIn(
      uint64_t{1}, [&](VertexId) { ++replicated; });
  EXPECT_EQ(back.affected_marked, replicated);
}

TEST_F(DynamicTest, RLCutWindowOverheadBounded) {
  const double budget = 0.3;
  auto session = OpenRLCut(budget);
  WallTimer timer;
  Insert(session.get(), Window(500));
  // Rebuild + one overshooting step allowed; but nowhere near unbounded.
  EXPECT_LT(timer.ElapsedSeconds(), budget + 2.0);
}

}  // namespace
}  // namespace rlcut
