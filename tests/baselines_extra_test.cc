#include <memory>

#include <gtest/gtest.h>

#include "baselines/extra_partitioners.h"
#include "cloud/topology.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "partition/metrics.h"

namespace rlcut {
namespace {

class ExtraBaselinesTest : public ::testing::Test {
 protected:
  ExtraBaselinesTest()
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
    ctx_.budget = 100.0;
    ctx_.seed = 5;
  }

  Graph graph_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

TEST_F(ExtraBaselinesTest, AllExtrasProduceValidStates) {
  for (auto factory : {&MakeOblivious, &MakeLdg}) {
    auto p = factory();
    SCOPED_TRACE(p->name());
    PartitionOutput out = p->RunOrDie(ctx_);
    EXPECT_TRUE(out.state.CheckInvariants());
    EXPECT_GE(out.state.ReplicationFactor(), 1.0);
  }
  PartitionOutput hdrf = MakeHdrf()->RunOrDie(ctx_);
  EXPECT_TRUE(hdrf.state.CheckInvariants());
}

TEST_F(ExtraBaselinesTest, ObliviousBeatsRandomOnReplication) {
  // PowerGraph's whole point: greedy placement cuts the replication
  // factor relative to random edge assignment.
  PartitionOutput random =
      MakePartitionerByName("RandPG", {}).value()->RunOrDie(ctx_);
  PartitionOutput oblivious = MakeOblivious()->RunOrDie(ctx_);
  EXPECT_LT(oblivious.state.ReplicationFactor(),
            random.state.ReplicationFactor());
}

TEST_F(ExtraBaselinesTest, HdrfBeatsRandomOnReplication) {
  PartitionOutput random =
      MakePartitionerByName("RandPG", {}).value()->RunOrDie(ctx_);
  PartitionOutput hdrf = MakeHdrf()->RunOrDie(ctx_);
  EXPECT_LT(hdrf.state.ReplicationFactor(),
            random.state.ReplicationFactor());
}

TEST_F(ExtraBaselinesTest, HdrfKeepsEdgeBalance) {
  PartitionOutput hdrf = MakeHdrf()->RunOrDie(ctx_);
  const PartitionReport report = MakeReport(hdrf.state);
  EXPECT_LT(report.edge_balance, 1.6);
}

TEST_F(ExtraBaselinesTest, LdgBalancesMasters) {
  PartitionOutput ldg = MakeLdg()->RunOrDie(ctx_);
  const PartitionReport report = MakeReport(ldg.state);
  EXPECT_LT(report.master_balance, 1.2);
}

TEST_F(ExtraBaselinesTest, LdgLocalizesBetterThanHash) {
  PartitionOutput ldg = MakeLdg()->RunOrDie(ctx_);
  PartitionOutput hash_edge_cut = [&] {
    PartitionConfig config;
    config.model = ComputeModel::kEdgeCut;
    config.workload = ctx_.workload;
    PartitionState state(ctx_.graph, ctx_.topology, ctx_.locations,
                         ctx_.input_sizes, config);
    std::vector<DcId> masters(graph_.num_vertices());
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      masters[v] = static_cast<DcId>(HashU64(v) % 8);
    }
    state.ResetDerived(masters);
    return PartitionOutput(std::move(state), 0.0);
  }();
  EXPECT_LT(ldg.state.WanBytesPerIteration(),
            hash_edge_cut.state.WanBytesPerIteration());
}

TEST_F(ExtraBaselinesTest, LookupByNameCoversEverything) {
  for (const char* name :
       {"RandPG", "Geo-Cut", "HashPL", "Ginger", "Revolver", "Spinner",
        "Fennel", "Oblivious", "HDRF", "LDG"}) {
    auto p = MakePartitionerByName(name, {});
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_EQ((*p)->name(), std::string(name));
  }
  EXPECT_EQ(MakePartitionerByName("Metis", {}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ExtraBaselinesTest, VertexCutExtrasUseVertexCutModel) {
  EXPECT_EQ(MakeOblivious()->model(), ComputeModel::kVertexCut);
  EXPECT_EQ(MakeHdrf()->model(), ComputeModel::kVertexCut);
  EXPECT_EQ(MakeLdg()->model(), ComputeModel::kEdgeCut);
}

}  // namespace
}  // namespace rlcut
