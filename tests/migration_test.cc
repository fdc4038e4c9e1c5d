#include <gtest/gtest.h>

#include "cloud/topology.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "partition/migration.h"
#include "rlcut/session.h"

namespace rlcut {
namespace {

TEST(MigrationTest, NoChangesNoTraffic) {
  Topology topo = MakeUniformTopology(4);
  std::vector<DcId> masters = {0, 1, 2, 3};
  std::vector<double> sizes(4, 1e9);
  const MigrationSummary s = PlanMigration(masters, masters, sizes, topo);
  EXPECT_EQ(s.vertices_moved, 0u);
  EXPECT_DOUBLE_EQ(s.bytes_moved, 0.0);
  EXPECT_DOUBLE_EQ(s.cost_dollars, 0.0);
  EXPECT_DOUBLE_EQ(s.transfer_seconds, 0.0);
}

TEST(MigrationTest, SingleMoveHandComputed) {
  // 1 GB from DC0 (uplink 0.5 GB/s, $0.10/GB) to DC1 (downlink 2.5).
  Topology topo = MakeUniformTopology(2, 0.5, 2.5, 0.10);
  std::vector<DcId> old_masters = {0, 1};
  std::vector<DcId> new_masters = {1, 1};
  std::vector<double> sizes = {1e9, 5e9};
  const MigrationSummary s =
      PlanMigration(old_masters, new_masters, sizes, topo);
  EXPECT_EQ(s.vertices_moved, 1u);
  EXPECT_DOUBLE_EQ(s.bytes_moved, 1e9);
  EXPECT_DOUBLE_EQ(s.cost_dollars, 0.10);
  // Uplink-bound: 1e9 / 0.5e9 = 2 s.
  EXPECT_DOUBLE_EQ(s.transfer_seconds, 2.0);
  EXPECT_DOUBLE_EQ(s.bytes_out[0], 1e9);
  EXPECT_DOUBLE_EQ(s.bytes_in[1], 1e9);
}

TEST(MigrationTest, ParallelMovesBoundedByBusiestLink) {
  Topology topo = MakeUniformTopology(4, 1.0, 1.0, 0.10);
  // Two vertices leave DC0 (2 GB out of a 1 GB/s uplink -> 2 s); one
  // enters DC1, one enters DC2 (1 GB each into 1 GB/s downlinks).
  std::vector<DcId> old_masters = {0, 0, 3};
  std::vector<DcId> new_masters = {1, 2, 3};
  std::vector<double> sizes = {1e9, 1e9, 1e9};
  const MigrationSummary s =
      PlanMigration(old_masters, new_masters, sizes, topo);
  EXPECT_EQ(s.vertices_moved, 2u);
  EXPECT_DOUBLE_EQ(s.transfer_seconds, 2.0);
}

TEST(MigrationTest, PlanOverloadMatchesVectors) {
  Topology topo = MakeUniformTopology(3);
  PartitionPlan old_plan;
  old_plan.masters = {0, 1, 2, 0};
  PartitionPlan new_plan = old_plan;
  new_plan.masters[0] = 2;
  std::vector<double> sizes(4, 2e9);
  const MigrationSummary a =
      PlanMigration(old_plan, new_plan, sizes, topo);
  const MigrationSummary b =
      PlanMigration(old_plan.masters, new_plan.masters, sizes, topo);
  EXPECT_EQ(a.vertices_moved, b.vertices_moved);
  EXPECT_DOUBLE_EQ(a.cost_dollars, b.cost_dollars);
}

TEST(MigrationTest, DynamicWindowsReportMigration) {
  PowerLawOptions opt;
  opt.num_vertices = 256;
  opt.num_edges = 2048;
  Graph full = GeneratePowerLaw(opt);
  Topology topo = MakeEc2Topology(4, Heterogeneity::kMedium);
  GraphSplit split = SplitEdges(full, 0.7, 3);
  std::vector<DcId> locations =
      [&] {
        GeoLocatorOptions geo;
        geo.num_dcs = 4;
        return AssignGeoLocations(full, geo);
      }();

  GraphBuilder builder(full.num_vertices());
  builder.AddEdges(split.initial_edges);
  const Graph initial_graph = std::move(builder).Build();
  const std::vector<double> sizes = AssignInputSizes(initial_graph);
  PartitionerContext ctx;
  ctx.graph = &initial_graph;
  ctx.topology = &topo;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = PartitionState::AutoTheta(full);
  ctx.seed = 3;
  RLCutSessionOptions options;
  options.initial.max_steps = 3;
  options.incremental = options.initial;
  options.incremental.t_opt_seconds = 0.5;
  auto session = RLCutSession::Open(ctx, options).value();
  ASSERT_TRUE(session->MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  ASSERT_TRUE(session->PublishPlan().ok());
  std::vector<Edge> w(split.remaining_edges.begin(),
                      split.remaining_edges.begin() + 200);
  ASSERT_TRUE(session->ApplyDelta(MicroBatchAt(w, SimTime(0))).ok());
  ASSERT_TRUE(session->MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  const MigrationSummary migration = session->PublishPlan().value().migration;
  // Consistency: bytes only move if vertices did, and the migration
  // clock is bounded by shipping everything over the slowest link.
  if (migration.vertices_moved == 0) {
    EXPECT_DOUBLE_EQ(migration.bytes_moved, 0.0);
  } else {
    EXPECT_GT(migration.bytes_moved, 0.0);
    EXPECT_GT(migration.transfer_seconds, 0.0);
  }
}

}  // namespace
}  // namespace rlcut
