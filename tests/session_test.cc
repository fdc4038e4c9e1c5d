// PartitioningSession lifecycle: open -> apply -> reoptimize ->
// publish, exact migration-budget enforcement, checkpoint/resume
// continuation, replication of the published plans, and the unified
// Result<>/Status error paths, which every session kind shares
// (SessionContractTest).

#include "partition/session.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/leopard.h"
#include "baselines/partitioner.h"
#include "baselines/spinner.h"
#include "cloud/topology.h"
#include "fault/fault.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "partition/migration.h"
#include "partition/plan_delta.h"
#include "rlcut/session.h"

namespace rlcut {
namespace {

constexpr VertexId kVertices = 96;
constexpr uint64_t kEdges = 480;
constexpr uint64_t kBaseEdges = 240;
constexpr int kDcs = 4;

// Replays what a session ships onto a PlanReplica, as
// net::ReplicaClient's mirror does.
class ReplayingSink : public ReplicaSink {
 public:
  Status Begin(const PlanSnapshot& snapshot) override {
    ++begins;
    return replica.InstallSnapshot(snapshot);
  }
  Status PushDelta(const PlanDelta& delta) override {
    return replica.Apply(delta);
  }
  Status Flush() override { return Status::Ok(); }
  bool degraded() const override { return false; }
  uint64_t version() const override { return replica.version(); }

  int begins = 0;
  PlanReplica replica;
};

// Shared streaming problem: a diurnal temporal stream whose prefix is
// the batch problem and whose suffix arrives as micro-batches.
class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : topology_(MakeUniformTopology(kDcs)) {
    TemporalStreamOptions stream;
    stream.num_vertices = kVertices;
    stream.num_edges = kEdges;
    stream.horizon_seconds = 3600;
    stream.seed = 3;
    temporal_ = std::make_unique<TemporalGraph>(GenerateDiurnalStream(stream));
    base_graph_ = temporal_->Prefix(kBaseEdges);
    GeoLocatorOptions geo;
    geo.num_dcs = kDcs;
    locations_ = AssignGeoLocations(base_graph_, geo);
    sizes_ = AssignInputSizes(base_graph_);

    ctx_.graph = &base_graph_;
    ctx_.topology = &topology_;
    ctx_.locations = &locations_;
    ctx_.input_sizes = &sizes_;
    ctx_.theta = PartitionState::AutoTheta(base_graph_);
    ctx_.budget = 50.0;
    ctx_.seed = 7;
  }

  RLCutSessionOptions SessionOpts() const {
    RLCutSessionOptions options;
    options.initial.max_steps = 3;
    options.initial.batch_size = 16;
    options.initial.num_threads = 1;
    options.initial.seed = 7;
    options.initial.agent_visit_budget =
        static_cast<int64_t>(kVertices) * 4;
    options.incremental = options.initial;
    options.incremental.max_steps = 2;
    return options;
  }

  // Splits the stream's suffix into `count` micro-batches through the
  // reorder buffer, so the batches carry real watermarks.
  std::vector<MicroBatch> SuffixBatches(int count) const {
    const std::vector<TimedEdge>& all = temporal_->edges();
    StreamBuffer buffer;
    for (uint64_t i = kBaseEdges; i < all.size(); ++i) {
      buffer.Push(StreamEvent{all[i], i});
    }
    const SimTime start = all[kBaseEdges].time;
    const SimTime end = all.back().time + SimTime(1);
    std::vector<MicroBatch> batches;
    for (int b = 1; b <= count; ++b) {
      const SimTime watermark = SimTime::Micros(
          start.micros() +
          (end.micros() - start.micros()) * b / count);
      batches.push_back(buffer.Cut(watermark));
    }
    return batches;
  }

  Topology topology_;
  std::unique_ptr<TemporalGraph> temporal_;
  Graph base_graph_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

TEST_F(SessionTest, RegistryOpensSessionsByMethodName) {
  auto spinner = OpenPartitioningSession("Spinner", ctx_);
  ASSERT_TRUE(spinner.ok()) << spinner.status().ToString();
  EXPECT_EQ((*spinner)->method(), "Spinner");
  EXPECT_NE(dynamic_cast<SpinnerSession*>(spinner->get()), nullptr);

  auto ginger = OpenPartitioningSession("Ginger", ctx_);
  ASSERT_TRUE(ginger.ok()) << ginger.status().ToString();
  EXPECT_NE(dynamic_cast<OneShotSession*>(ginger->get()), nullptr);

  auto rl = OpenPartitioningSession("RLCut", ctx_);
  ASSERT_TRUE(rl.ok()) << rl.status().ToString();
  EXPECT_EQ((*rl)->method(), "RLCut");
  EXPECT_NE(dynamic_cast<RLCutSession*>(rl->get()), nullptr);

  auto missing = OpenPartitioningSession("Nope", ctx_);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(SessionTest, BatchRunIsTheDegenerateSession) {
  // Partitioner::Run == a cold session's first re-optimization.
  auto run = MakeGinger()->Run(ctx_);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  auto session = OneShotSession::Open(MakeGinger(), ctx_);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto reopt = (*session)->MaybeReoptimize(MigrationBudget::Unlimited());
  ASSERT_TRUE(reopt.ok()) << reopt.status().ToString();

  EXPECT_EQ(run->state.masters(), (*session)->live_state()->masters());
}

TEST_F(SessionTest, OwnedOneShotSessionIngestsAndRepartitions) {
  auto session = OneShotSession::Open(MakeGinger(), ctx_);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Publish before the first re-optimization: nothing to publish yet.
  auto early = (*session)->PublishPlan();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(
      (*session)->MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  auto v1 = (*session)->PublishPlan();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->version, 1u);

  uint64_t ingested = 0;
  for (const MicroBatch& batch : SuffixBatches(2)) {
    auto applied = (*session)->ApplyDelta(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ingested += applied->edges_applied;
  }
  EXPECT_EQ(ingested, kEdges - kBaseEdges);

  ASSERT_TRUE(
      (*session)->MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  auto v2 = (*session)->PublishPlan();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->version, 2u);
  ASSERT_NE((*session)->live_state(), nullptr);
  EXPECT_EQ((*session)->live_state()->graph().num_edges(), kEdges);
}

TEST_F(SessionTest, LifecycleOrderAndInputValidation) {
  auto opened = RLCutSession::Open(ctx_, SessionOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RLCutSession& session = **opened;

  // Publish before any successful re-optimization.
  auto early = session.PublishPlan();
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  // Out-of-range endpoint.
  MicroBatch bad;
  bad.watermark = SimTime(10);
  bad.edges.push_back(TimedEdge{{kVertices, 0}, SimTime(5)});
  auto out_of_range = session.ApplyDelta(bad);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kOutOfRange);

  // A good batch, then a watermark moving backwards.
  const auto batches = SuffixBatches(2);
  ASSERT_TRUE(session.ApplyDelta(batches[1]).ok());
  auto backwards = session.ApplyDelta(batches[0]);
  ASSERT_FALSE(backwards.ok());
  EXPECT_EQ(backwards.status().code(), StatusCode::kInvalidArgument);

  auto reopt = session.MaybeReoptimize(MigrationBudget::Unlimited());
  ASSERT_TRUE(reopt.ok()) << reopt.status().ToString();
  EXPECT_TRUE(reopt->reoptimized);
  auto plan = session.PublishPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->version, 1u);

  // Nothing new since the last pass: a clean no-op, not an error.
  auto idle = session.MaybeReoptimize(MigrationBudget::Unlimited());
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->reoptimized);
}

TEST_F(SessionTest, AppliesDeferTheRebuildToTheNextReader) {
  const std::string path = ::testing::TempDir() + "/session_rebuild.ckpt";
  auto opened = RLCutSession::Open(ctx_, SessionOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RLCutSession& session = **opened;
  const obs::Counter* rebuilds =
      obs::DefaultRegistry().GetCounter("serve.state_rebuilds");
  const auto batches = SuffixBatches(6);

  // Two applies, then the first reader: exactly one rebuild, and a
  // second reader with nothing pending adds none.
  const uint64_t start = rebuilds->value();
  ASSERT_TRUE(session.ApplyDelta(batches[0]).ok());
  ASSERT_TRUE(session.ApplyDelta(batches[1]).ok());
  EXPECT_EQ(rebuilds->value(), start);
  ASSERT_TRUE(session.MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  EXPECT_EQ(rebuilds->value(), start + 1);
  ASSERT_TRUE(session.PublishPlan().ok());
  EXPECT_EQ(rebuilds->value(), start + 1);

  // Every other reader re-derives a pending batch once.
  const std::vector<std::pair<const char*, std::function<void()>>> readers =
      {{"live_state", [&] { ASSERT_NE(session.live_state(), nullptr); }},
       {"PublishPlan", [&] { ASSERT_TRUE(session.PublishPlan().ok()); }},
       {"UpdateTopology",
        [&] { ASSERT_TRUE(session.UpdateTopology(topology_).ok()); }},
       {"SaveCheckpoint",
        [&] { ASSERT_TRUE(session.SaveCheckpoint(path).ok()); }}};
  for (size_t i = 0; i < readers.size(); ++i) {
    const uint64_t before = rebuilds->value();
    ASSERT_FALSE(batches[2 + i].edges.empty());
    ASSERT_TRUE(session.ApplyDelta(batches[2 + i]).ok());
    EXPECT_EQ(rebuilds->value(), before) << readers[i].first;
    readers[i].second();
    EXPECT_EQ(rebuilds->value(), before + 1) << readers[i].first;
  }
  EXPECT_EQ(session.live_state()->graph().num_edges(), kEdges);
  EXPECT_TRUE(session.live_state()->CheckInvariants());
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
}

TEST_F(SessionTest, MigrationBudgetRespectedExactly) {
  auto opened = RLCutSession::Open(ctx_, SessionOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RLCutSession& session = **opened;

  // Zero budget: the published plan must equal the initial locations.
  MigrationBudget frozen;
  frozen.max_vertices = 0;
  ASSERT_TRUE(session.MaybeReoptimize(frozen).ok());
  auto v1 = session.PublishPlan();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->masters, locations_);
  EXPECT_EQ(v1->migration.vertices_moved, 0u);

  // Tight budget: at most 5 masters may differ from the last publish,
  // re-checked independently with PlanMigration.
  const auto batches = SuffixBatches(2);
  for (const MicroBatch& batch : batches) {
    ASSERT_TRUE(session.ApplyDelta(batch).ok());
  }
  MigrationBudget tight;
  tight.max_vertices = 5;
  ASSERT_TRUE(session.MaybeReoptimize(tight).ok());
  auto v2 = session.PublishPlan();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_LE(v2->migration.vertices_moved, 5u);
  const MigrationSummary recheck =
      PlanMigration(v1->masters, v2->masters,
                    AssignInputSizes(temporal_->Prefix(kEdges)), topology_);
  EXPECT_LE(recheck.vertices_moved, 5u);
  EXPECT_EQ(recheck.vertices_moved, v2->migration.vertices_moved);
}

TEST_F(SessionTest, CheckpointResumeContinuesBitIdentically) {
  const std::string path =
      ::testing::TempDir() + "/session_resume.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  const auto batches = SuffixBatches(4);
  MigrationBudget budget;
  budget.max_vertices = 12;

  auto opened = RLCutSession::Open(ctx_, SessionOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RLCutSession& live = **opened;
  ASSERT_TRUE(live.ApplyDelta(batches[0]).ok());
  ASSERT_TRUE(live.ApplyDelta(batches[1]).ok());
  ASSERT_TRUE(live.MaybeReoptimize(budget).ok());
  ASSERT_TRUE(live.PublishPlan().ok());

  // Checkpoint mid-stream, then let both sessions finish the stream.
  ASSERT_TRUE(live.SaveCheckpoint(path).ok());
  auto restored = RLCutSession::Restore(path, SessionOpts());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->watermark(), live.watermark());
  EXPECT_EQ((*restored)->num_edges(), live.num_edges());
  EXPECT_EQ((*restored)->version(), live.version());

  std::vector<std::vector<DcId>> published_live;
  std::vector<std::vector<DcId>> published_restored;
  for (RLCutSession* session : {&live, restored->get()}) {
    auto& published =
        session == &live ? published_live : published_restored;
    for (size_t b = 2; b < batches.size(); ++b) {
      ASSERT_TRUE(session->ApplyDelta(batches[b]).ok());
      ASSERT_TRUE(session->MaybeReoptimize(budget).ok());
      auto plan = session->PublishPlan();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      published.push_back(plan->masters);
    }
  }
  ASSERT_EQ(published_live.size(), published_restored.size());
  for (size_t i = 0; i < published_live.size(); ++i) {
    EXPECT_EQ(published_live[i], published_restored[i]) << "publish " << i;
  }
  EXPECT_EQ(live.version(), (*restored)->version());
}

TEST_F(SessionTest, RestoredSessionBeginsTheSinkAtItsPublishedVersion) {
  const std::string path =
      ::testing::TempDir() + "/session_replica.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());
  const auto batches = SuffixBatches(2);

  auto opened = RLCutSession::Open(ctx_, SessionOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RLCutSession& live = **opened;
  ASSERT_TRUE(live.MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  ASSERT_TRUE(live.PublishPlan().ok());
  ASSERT_TRUE(live.ApplyDelta(batches[0]).ok());
  ASSERT_TRUE(live.MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  ASSERT_TRUE(live.PublishPlan().ok());
  ASSERT_TRUE(live.SaveCheckpoint(path).ok());

  auto restored = RLCutSession::Restore(path, SessionOpts());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ReplayingSink sink;
  (*restored)->SetReplicaSink(&sink);
  EXPECT_TRUE((*restored)->replica_status().ok());
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.replica.version(), 2u);
  EXPECT_EQ(sink.replica.masters(), live.last_published_masters());

  // The next publish chains onto the restored version.
  ASSERT_TRUE((*restored)->ApplyDelta(batches[1]).ok());
  ASSERT_TRUE(
      (*restored)->MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  auto plan = (*restored)->PublishPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(sink.replica.version(), 3u);
  EXPECT_EQ(sink.replica.masters(), plan->masters);
}

TEST_F(SessionTest, RestoreFallsBackToRotatedCheckpoint) {
  const std::string path =
      ::testing::TempDir() + "/session_fallback.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".prev").c_str());

  auto opened = RLCutSession::Open(ctx_, SessionOpts());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RLCutSession& session = **opened;
  ASSERT_TRUE(session.MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  ASSERT_TRUE(session.PublishPlan().ok());
  ASSERT_TRUE(session.SaveCheckpoint(path).ok());

  const auto batches = SuffixBatches(2);
  ASSERT_TRUE(session.ApplyDelta(batches[0]).ok());
  ASSERT_TRUE(session.MaybeReoptimize(MigrationBudget::Unlimited()).ok());
  ASSERT_TRUE(session.PublishPlan().ok());
  // Second save rotates the first to `path`.prev ...
  ASSERT_TRUE(session.SaveCheckpoint(path).ok());
  // ... and then the primary gets corrupted.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  auto restored = RLCutSession::Restore(path, SessionOpts());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->version(), 1u);  // the rotated (older) state

  // With both slots corrupt, Restore reports the failure.
  {
    std::ofstream out(path + ".prev",
                      std::ios::binary | std::ios::trunc);
    out << "also not a checkpoint";
  }
  auto failed = RLCutSession::Restore(path, SessionOpts());
  ASSERT_FALSE(failed.ok());
}

// ---- The contract every session kind keeps ------------------------------

class SessionContractTest : public SessionTest,
                            public ::testing::WithParamInterface<const char*> {
 protected:
  ~SessionContractTest() override { fault::Disarm(); }

  // The session kind named by the parameter, over `ctx` (default: the
  // shared streaming problem): the two incremental baselines, RLCut, or
  // a cold OneShotSession over a batch method.
  std::unique_ptr<PartitioningSession> Open(
      const PartitionerContext* ctx = nullptr) {
    const PartitionerContext& c = ctx != nullptr ? *ctx : ctx_;
    const std::string kind = GetParam();
    auto up = [](auto opened) -> std::unique_ptr<PartitioningSession> {
      EXPECT_TRUE(opened.ok()) << opened.status().ToString();
      return opened.ok() ? std::move(*opened) : nullptr;
    };
    if (kind == "RLCut") return up(RLCutSession::Open(c, SessionOpts()));
    if (kind == "Spinner") return up(SpinnerSession::Open(c, {}));
    if (kind == "Leopard") return up(LeopardSession::Open(c));
    return up(
        OneShotSession::Open(MakePartitionerByName(kind, {}).value(), c));
  }
};

TEST_P(SessionContractTest, RefusesMalformedInputWithOneStatusCode) {
  std::unique_ptr<PartitioningSession> session = Open();
  ASSERT_NE(session, nullptr);
  auto code = [&](const MicroBatch& batch) {
    return session->ApplyDelta(batch).status().code();
  };
  MicroBatch unsorted;
  unsorted.watermark = SimTime(10);
  unsorted.edges = {TimedEdge{{0, 1}, SimTime(5)},
                    TimedEdge{{1, 2}, SimTime(4)}};
  EXPECT_EQ(code(unsorted), StatusCode::kInvalidArgument);
  MicroBatch past_watermark;
  past_watermark.watermark = SimTime(10);
  past_watermark.edges = {TimedEdge{{0, 1}, SimTime(11)}};
  EXPECT_EQ(code(past_watermark), StatusCode::kInvalidArgument);
  MicroBatch out_of_range;
  out_of_range.watermark = SimTime(10);
  out_of_range.edges = {TimedEdge{{0, 1}, SimTime(5)},
                        TimedEdge{{kVertices, 0}, SimTime(6)}};
  EXPECT_EQ(code(out_of_range), StatusCode::kOutOfRange);
  // A refused batch leaves the problem as it was.
  EXPECT_EQ(session->num_edges(), kBaseEdges);

  const auto batches = SuffixBatches(2);
  ASSERT_TRUE(session->ApplyDelta(batches[1]).ok());
  EXPECT_EQ(code(batches[0]), StatusCode::kInvalidArgument);

  const uint64_t edges = session->num_edges();
  auto removal = session->RemoveEdges({Edge{0, 1}, Edge{2, kVertices}});
  ASSERT_FALSE(removal.ok());
  EXPECT_EQ(removal.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(session->num_edges(), edges);
}

TEST_P(SessionContractTest, FiresTheIngestFaultSite) {
  std::unique_ptr<PartitioningSession> session = Open();
  ASSERT_NE(session, nullptr);
  fault::FaultSchedule schedule;
  schedule.rules.push_back(fault::FaultRule{"session.ingest_fail", 0, 1});
  fault::Arm(schedule);
  const auto batches = SuffixBatches(1);
  auto failed = session->ApplyDelta(batches[0]);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(fault::FireCount("session.ingest_fail"), 1u);
  EXPECT_EQ(session->num_edges(), kBaseEdges);
  // The retry goes through.
  ASSERT_TRUE(session->ApplyDelta(batches[0]).ok());
  EXPECT_EQ(session->num_edges(), kEdges);
}

TEST_P(SessionContractTest, IdleReoptimizationKeepsThePlan) {
  std::unique_ptr<PartitioningSession> session = Open();
  ASSERT_NE(session, nullptr);
  const MigrationBudget unlimited = MigrationBudget::Unlimited();
  ASSERT_TRUE(session->MaybeReoptimize(unlimited).value().reoptimized);
  const std::vector<DcId> masters = session->live_state()->masters();
  const double transfer =
      session->live_state()->CurrentObjective().transfer_seconds;
  const obs::Counter* runs =
      obs::DefaultRegistry().GetCounter("serve.reopt_runs");
  const uint64_t runs_before = runs->value();

  auto idle = session->MaybeReoptimize(unlimited);
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  EXPECT_FALSE(idle->reoptimized);
  EXPECT_EQ(runs->value(), runs_before);
  EXPECT_EQ(session->live_state()->masters(), masters);
  EXPECT_EQ(session->live_state()->CurrentObjective().transfer_seconds,
            transfer);

  // A change brings the next pass back, over the grown graph.
  ASSERT_TRUE(session->ApplyDelta(SuffixBatches(1)[0]).ok());
  EXPECT_TRUE(session->MaybeReoptimize(unlimited).value().reoptimized);
  EXPECT_EQ(session->live_state()->graph().num_edges(), kEdges);
  EXPECT_TRUE(session->live_state()->CheckInvariants());
}

TEST_P(SessionContractTest, HonoursABindingMigrationBudget) {
  // Vertex-cut kinds (Leopard, RandPG) hold an explicit placement, so
  // the clamp must revert their masters without the derived-placement
  // what-if evaluation.
  std::unique_ptr<PartitioningSession> session = Open();
  ASSERT_NE(session, nullptr);
  MigrationBudget budget;
  budget.max_vertices = 5;
  uint64_t reverted = 0;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass > 0) {
      ASSERT_TRUE(session->ApplyDelta(SuffixBatches(1)[0]).ok());
    }
    auto reoptimized = session->MaybeReoptimize(budget);
    ASSERT_TRUE(reoptimized.ok()) << reoptimized.status().ToString();
    reverted += reoptimized->reverted_vertices;
    auto plan = session->PublishPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_LE(plan->migration.vertices_moved, budget.max_vertices)
        << "pass " << pass;
    EXPECT_TRUE(session->live_state()->CheckInvariants());
  }
  // The budget did bind: without it the first pass moves more.
  EXPECT_GT(reverted, 0u);
}

TEST_P(SessionContractTest, ReplicaHoldsEveryPublishedPlan) {
  // A power-law problem where a binding max_bytes budget meets input
  // sizes that grow between re-optimization and publish: the edges
  // ingested in between land on the moved vertices, so the publish-time
  // re-clamp reverts moves the re-optimization kept.
  PowerLawOptions power;
  power.num_vertices = 2000;
  power.num_edges = 16000;
  power.seed = 5;
  const Graph graph = GeneratePowerLaw(power);
  GeoLocatorOptions geo;
  geo.num_dcs = kDcs;
  const std::vector<DcId> locations = AssignGeoLocations(graph, geo);
  const std::vector<double> sizes = AssignInputSizes(graph);
  PartitionerContext ctx = ctx_;
  ctx.graph = &graph;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = PartitionState::AutoTheta(graph);

  std::unique_ptr<PartitioningSession> session = Open(&ctx);
  ASSERT_NE(session, nullptr);
  ReplayingSink sink;
  session->SetReplicaSink(&sink);
  ASSERT_TRUE(session->replica_status().ok());
  EXPECT_EQ(sink.replica.version(), 0u);
  EXPECT_EQ(sink.replica.masters(), locations);

  MigrationBudget budget;
  budget.max_bytes = 2e6;
  uint64_t publish_reverted = 0;
  SimTime watermark;
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(session->MaybeReoptimize(budget).ok());
    // 64 extra edges on every vertex the pass moved.
    const std::vector<DcId>& masters = session->live_state()->masters();
    const std::vector<DcId>& published = session->last_published_masters();
    MicroBatch grow;
    watermark = watermark + SimTime(1);
    grow.watermark = watermark;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (masters[v] == published[v]) continue;
      for (VertexId k = 1; k <= 64; ++k) {
        grow.edges.push_back(TimedEdge{
            {v, (v + k) % graph.num_vertices()}, watermark});
      }
    }
    ASSERT_TRUE(session->ApplyDelta(grow).ok());
    auto plan = session->PublishPlan();
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    publish_reverted += plan->reverted_vertices;
    EXPECT_TRUE(session->replica_status().ok());
    EXPECT_EQ(sink.replica.version(), plan->version) << "pass " << pass;
    EXPECT_EQ(sink.replica.masters(), plan->masters) << "pass " << pass;
  }
  EXPECT_GT(publish_reverted, 0u);
  EXPECT_EQ(sink.begins, 1);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SessionContractTest,
                         ::testing::Values("RLCut", "Spinner", "Leopard",
                                           "Ginger", "RandPG"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace rlcut
