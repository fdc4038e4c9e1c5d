#include "rlcut/session.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "common/atomic_file.h"
#include "common/byte_io.h"
#include "common/logging.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "graph/geo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/migration.h"
#include "rlcut/trainer.h"

namespace rlcut {
namespace {

constexpr char kSessionMagic[8] = {'R', 'L', 'C', 'U', 'T', 'S', 'S', 'N'};
constexpr uint32_t kSessionFormatVersion = 1;

}  // namespace

RLCutSession::RLCutSession(RLCutSessionOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<RLCutSession>> RLCutSession::Open(
    const PartitionerContext& ctx, RLCutSessionOptions options) {
  RLCUT_RETURN_IF_ERROR(ValidatePartitionerContext(ctx));
  if (options.initial.budget == 0) options.initial.budget = ctx.budget;
  if (options.incremental.budget == 0) options.incremental.budget = ctx.budget;
  std::unique_ptr<RLCutSession> session(
      new RLCutSession(std::move(options)));
  session->num_vertices_ = ctx.graph->num_vertices();
  session->edges_.reserve(ctx.graph->num_edges());
  for (EdgeId e = 0; e < ctx.graph->num_edges(); ++e) {
    session->edges_.push_back(ctx.graph->GetEdge(e));
  }
  session->topology_ = *ctx.topology;
  session->locations_ = *ctx.locations;
  session->input_sizes_ = *ctx.input_sizes;
  session->workload_ = ctx.workload;
  session->theta_ = ctx.theta;
  session->cost_budget_ = ctx.budget;
  session->seed_ = ctx.seed;

  session->graph_ = std::make_unique<Graph>(*ctx.graph);
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = session->theta_;
  config.workload = session->workload_;
  session->state_ = std::make_unique<PartitionState>(
      session->graph_.get(), &session->topology_, &session->locations_,
      &session->input_sizes_, config);
  // Initial plan: data stays where it is. The first publish is budgeted
  // against this zero-migration baseline.
  session->state_->ResetDerived(session->locations_);
  session->pool_ = std::make_unique<AutomatonPool>(
      session->num_vertices_, session->topology_.num_dcs(),
      session->options_.incremental);
  session->last_published_masters_ = session->locations_;
  session->affected_flags_.assign(session->num_vertices_, 0);
  return session;
}

void RLCutSession::Refresh() const {
  if (!stale_) return;
  obs::TraceSpan span("session/rebuild", "session");
  WallTimer timer;
  GraphBuilder builder(num_vertices_);
  builder.AddEdges(edges_);
  std::move(builder).BuildInto(graph_.get());
  // Input sizes grow with degree, as in the dynamic drivers.
  input_sizes_ = AssignInputSizes(*graph_);
  state_->RefreshGraph();
  stale_ = false;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("serve.state_rebuilds")->Increment();
  registry.GetHistogram("serve.rebuild_seconds")
      ->Observe(timer.ElapsedSeconds());
}

Result<ApplyResult> RLCutSession::ApplyDelta(const MicroBatch& batch) {
  if (fault::ShouldFire("session.ingest_fail")) {
    return Status::Internal("injected fault: session.ingest_fail");
  }
  if (batch.watermark < watermark_) {
    return Status::InvalidArgument(
        "micro-batch watermark moved backwards: " +
        std::to_string(batch.watermark.seconds()) + "s after " +
        std::to_string(watermark_.seconds()) + "s");
  }
  SimTime prev = SimTime::Min();
  for (const TimedEdge& te : batch.edges) {
    if (te.edge.src >= num_vertices_ || te.edge.dst >= num_vertices_) {
      return Status::OutOfRange(
          "micro-batch edge (" + std::to_string(te.edge.src) + ", " +
          std::to_string(te.edge.dst) + ") outside the fixed vertex set of " +
          std::to_string(num_vertices_));
    }
    if (te.time < prev) {
      return Status::InvalidArgument(
          "micro-batch edges are not sorted by time (see "
          "StreamBuffer::Cut, which emits deterministic sorted batches)");
    }
    if (te.time > batch.watermark) {
      return Status::InvalidArgument(
          "micro-batch contains an edge past its watermark");
    }
    prev = te.time;
  }

  WallTimer timer;
  ApplyResult result;
  result.edges_applied = batch.edges.size();
  if (!batch.edges.empty()) {
    std::vector<VertexId> endpoints;
    endpoints.reserve(batch.edges.size() * 2);
    for (const TimedEdge& te : batch.edges) {
      edges_.push_back(te.edge);
      affected_flags_[te.edge.src] = 1;
      affected_flags_[te.edge.dst] = 1;
      endpoints.push_back(te.edge.src);
      endpoints.push_back(te.edge.dst);
    }
    stale_ = true;  // the next reader re-derives the live state
    // vertices_affected counts this batch's distinct endpoints.
    std::sort(endpoints.begin(), endpoints.end());
    endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                    endpoints.end());
    result.vertices_affected = endpoints.size();
  }
  watermark_ = batch.watermark;
  result.apply_seconds = timer.ElapsedSeconds();
  result.watermark = watermark_;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("serve.edges_ingested")
      ->Increment(result.edges_applied);
  registry.GetHistogram("serve.apply_seconds")->Observe(result.apply_seconds);
  return result;
}

std::vector<VertexId> RLCutSession::TakePendingAffected() {
  std::vector<VertexId> pending;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (affected_flags_[v]) pending.push_back(v);
  }
  std::fill(affected_flags_.begin(), affected_flags_.end(), 0);
  return pending;
}

Result<ReoptimizeResult> RLCutSession::MaybeReoptimize(
    const MigrationBudget& budget) {
  obs::TraceSpan span("session/reoptimize", "session");
  Refresh();
  ReoptimizeResult result;
  last_budget_ = budget;
  std::vector<VertexId> eligible;
  if (!trained_once_) {
    eligible.resize(num_vertices_);
    std::iota(eligible.begin(), eligible.end(), 0u);
    std::fill(affected_flags_.begin(), affected_flags_.end(), 0);
  } else {
    eligible = TakePendingAffected();
  }
  if (eligible.empty()) {
    result.objective = state_->CurrentObjective();
    return result;
  }
  WallTimer timer;
  result.trained_vertices = eligible.size();
  {
    RLCutTrainer trainer(trained_once_ ? options_.incremental
                                       : options_.initial);
    trainer.SetReplicaSink(replica_sink_);
    const TrainResult trained =
        trainer.Train(state_.get(), std::move(eligible), pool_.get());
    if (replica_sink_ != nullptr) {
      replica_status_ = trained.replica_status;
      replica_degraded_ = replica_degraded_ || trained.replica_degraded;
    }
  }
  // The sink mirrors the trainer's final plan; the budget clamp below
  // can revert moves after that, so capture the pre-clamp masters and
  // ship the difference as one correction delta.
  std::vector<DcId> pre_clamp_masters;
  if (replica_sink_ != nullptr) pre_clamp_masters = state_->masters();
  const BudgetClampResult clamp = EnforceMigrationBudget(
      state_.get(), last_published_masters_, input_sizes_, budget);
  if (replica_sink_ != nullptr && replica_status_.ok()) {
    PlanDelta correction;
    correction.base_version = replica_sink_->version();
    const std::vector<DcId>& post_clamp = state_->masters();
    for (size_t v = 0; v < post_clamp.size(); ++v) {
      if (pre_clamp_masters[v] != post_clamp[v]) {
        correction.moves.push_back(PlanMove{static_cast<VertexId>(v),
                                            pre_clamp_masters[v],
                                            post_clamp[v]});
      }
    }
    if (!correction.moves.empty()) {
      replica_status_ = replica_sink_->PushDelta(correction);
      if (replica_status_.ok()) replica_status_ = replica_sink_->Flush();
      replica_degraded_ =
          replica_degraded_ || replica_sink_->degraded();
    }
  }
  trained_once_ = true;
  result.reoptimized = true;
  result.reverted_vertices = clamp.reverted;
  result.overhead_seconds = timer.ElapsedSeconds();
  result.objective = state_->CurrentObjective();
  span.AddArg("trained", static_cast<double>(result.trained_vertices));
  span.AddArg("reverted", static_cast<double>(result.reverted_vertices));
  obs::DefaultRegistry().GetCounter("serve.reopt_runs")->Increment();
  return result;
}

Result<PublishedPlan> RLCutSession::PublishPlan() {
  if (fault::ShouldFire("session.publish_fail")) {
    return Status::Internal("injected fault: session.publish_fail");
  }
  if (!trained_once_) {
    return Status::FailedPrecondition(
        "no plan to publish: MaybeReoptimize must succeed first");
  }
  Refresh();
  PublishedPlan plan;
  // Publish-time re-clamp: guarantees the per-publish budget invariant
  // even if input sizes shifted since the last re-optimization.
  const BudgetClampResult clamp = EnforceMigrationBudget(
      state_.get(), last_published_masters_, input_sizes_, last_budget_);
  plan.reverted_vertices = clamp.reverted;
  plan.masters = state_->masters();
  plan.migration = PlanMigration(last_published_masters_, plan.masters,
                                 input_sizes_, topology_);
  plan.objective = state_->CurrentObjective();
  plan.version = ++version_;
  last_published_masters_ = plan.masters;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("serve.publishes")->Increment();
  registry.GetGauge("serve.plan_version")
      ->Set(static_cast<double>(version_));
  return plan;
}

Result<TopologyUpdateResult> RLCutSession::UpdateTopology(
    const Topology& topology) {
  if (topology.num_dcs() != topology_.num_dcs()) {
    return Status::InvalidArgument(
        "topology update changes the DC count from " +
        std::to_string(topology_.num_dcs()) + " to " +
        std::to_string(topology.num_dcs()));
  }
  RLCUT_RETURN_IF_ERROR(topology.Validate());
  // Derive pending batches under the topology they were applied in.
  Refresh();
  TopologyUpdateResult result;
  result.drift = TopologyDrift(topology_, topology);
  const uint64_t changed =
      ChangedDcMask(topology_, topology, options_.drift_threshold);
  topology_ = topology;
  state_->UpdateTopology(&topology_);
  if (result.drift >= options_.drift_threshold && changed != 0) {
    state_->ForEachVertexWithReplicaIn(changed, [&](VertexId v) {
      if (!affected_flags_[v]) {
        affected_flags_[v] = 1;
        ++result.affected_marked;
      }
    });
  }
  return result;
}

// ---- Checkpoint / resume ------------------------------------------------

Status RLCutSession::SaveCheckpoint(const std::string& path) const {
  obs::TraceSpan span("session/checkpoint_save", "session");
  Refresh();
  ByteWriter writer;
  writer.Write<uint64_t>(num_vertices_);
  writer.Write<uint32_t>(theta_);
  writer.Write<double>(cost_budget_);
  writer.Write<uint64_t>(seed_);

  writer.Write<int32_t>(topology_.num_dcs());
  for (const DataCenter& dc : topology_.dcs()) {
    writer.WriteString(dc.name);
    writer.Write<double>(dc.uplink_gbps);
    writer.Write<double>(dc.downlink_gbps);
    writer.Write<double>(dc.upload_price);
  }

  writer.WriteVector(locations_);
  writer.WriteVector(edges_);

  writer.WriteString(workload_.name);
  writer.Write<double>(workload_.apply_base_bytes);
  writer.Write<double>(workload_.apply_bytes_per_out_edge);
  writer.Write<double>(workload_.gather_base_bytes);
  writer.WriteVector(workload_.activity);

  writer.WriteVector(input_sizes_);
  writer.WriteVector(state_->masters());

  const AutomatonPoolState pool = pool_->Snapshot();
  writer.Write<uint64_t>(pool.num_vertices);
  writer.Write<int32_t>(pool.num_dcs);
  writer.WriteVector(pool.prob);
  writer.WriteVector(pool.mean_q);
  writer.WriteVector(pool.count);

  writer.Write<uint8_t>(trained_once_ ? 1 : 0);
  writer.Write<uint64_t>(version_);
  writer.WriteVector(last_published_masters_);
  writer.Write<uint64_t>(last_budget_.max_vertices);
  writer.Write<double>(last_budget_.max_bytes);
  writer.Write<int64_t>(watermark_.micros());
  writer.WriteVector(affected_flags_);

  span.AddArg("bytes", static_cast<double>(writer.bytes().size()));
  // Rotate the previous file into the fallback slot before the atomic
  // replace, mirroring SaveTrainerCheckpointRotating.
  std::rename(path.c_str(), (path + ".prev").c_str());
  RLCUT_RETURN_IF_ERROR(AtomicWriteFile(
      path,
      WrapEnvelope(kSessionMagic, kSessionFormatVersion, writer.bytes()),
      "checkpoint"));
  obs::DefaultRegistry().GetCounter("serve.checkpoint_saves")->Increment();
  return Status::Ok();
}

Result<std::unique_ptr<RLCutSession>> RLCutSession::LoadSessionFile(
    const std::string& path, const RLCutSessionOptions& options) {
  Result<std::string> payload = ReadEnvelopeFile(
      path, kSessionMagic, kSessionFormatVersion, "session");
  if (!payload.ok()) return payload.status();
  Result<std::unique_ptr<RLCutSession>> session =
      DecodeSession(*payload, options);
  if (!session.ok()) {
    return Status(session.status().code(),
                  path + ": " + session.status().message());
  }
  return session;
}

Result<std::unique_ptr<RLCutSession>> RLCutSession::Restore(
    const std::string& path, RLCutSessionOptions options) {
  obs::TraceSpan span("session/checkpoint_load", "session");
  Result<std::unique_ptr<RLCutSession>> primary =
      LoadSessionFile(path, options);
  if (primary.ok()) return primary;
  Result<std::unique_ptr<RLCutSession>> fallback =
      LoadSessionFile(path + ".prev", options);
  if (!fallback.ok()) {
    // The primary's diagnosis is the interesting one; a missing
    // fallback slot is the normal state.
    return primary.status();
  }
  obs::DefaultRegistry()
      .GetCounter("serve.checkpoint_fallback_loads")
      ->Increment();
  return fallback;
}

Result<std::unique_ptr<RLCutSession>> RLCutSession::DecodeSession(
    const std::string& payload, RLCutSessionOptions options) {
  ByteReader reader(payload);
  const Status truncated = Status::IoError("truncated session payload");

  uint64_t num_vertices = 0;
  uint32_t theta = 0;
  double cost_budget = 0;
  uint64_t seed = 0;
  int32_t num_dcs = 0;
  if (!reader.Read(&num_vertices) || !reader.Read(&theta) ||
      !reader.Read(&cost_budget) || !reader.Read(&seed) ||
      !reader.Read(&num_dcs)) {
    return truncated;
  }
  if (num_dcs < 1 || num_dcs > kMaxDataCenters) {
    return Status::IoError("session has an invalid DC count");
  }
  std::vector<DataCenter> dcs(num_dcs);
  for (DataCenter& dc : dcs) {
    if (!reader.ReadString(&dc.name) || !reader.Read(&dc.uplink_gbps) ||
        !reader.Read(&dc.downlink_gbps) || !reader.Read(&dc.upload_price)) {
      return truncated;
    }
  }

  std::vector<DcId> locations;
  std::vector<Edge> edges;
  if (!reader.ReadVector(&locations) || !reader.ReadVector(&edges)) {
    return truncated;
  }

  Workload workload;
  if (!reader.ReadString(&workload.name) ||
      !reader.Read(&workload.apply_base_bytes) ||
      !reader.Read(&workload.apply_bytes_per_out_edge) ||
      !reader.Read(&workload.gather_base_bytes) ||
      !reader.ReadVector(&workload.activity)) {
    return truncated;
  }

  std::vector<double> input_sizes;
  std::vector<DcId> masters;
  if (!reader.ReadVector(&input_sizes) || !reader.ReadVector(&masters)) {
    return truncated;
  }

  AutomatonPoolState pool;
  uint64_t pool_vertices = 0;
  if (!reader.Read(&pool_vertices) || !reader.Read(&pool.num_dcs) ||
      !reader.ReadVector(&pool.prob) || !reader.ReadVector(&pool.mean_q) ||
      !reader.ReadVector(&pool.count)) {
    return truncated;
  }
  pool.num_vertices = static_cast<VertexId>(pool_vertices);

  uint8_t trained_once = 0;
  uint64_t version = 0;
  std::vector<DcId> last_published;
  uint64_t budget_vertices = 0;
  double budget_bytes = 0;
  int64_t watermark_micros = 0;
  std::vector<uint8_t> affected_flags;
  if (!reader.Read(&trained_once) || !reader.Read(&version) ||
      !reader.ReadVector(&last_published) || !reader.Read(&budget_vertices) ||
      !reader.Read(&budget_bytes) || !reader.Read(&watermark_micros) ||
      !reader.ReadVector(&affected_flags)) {
    return truncated;
  }
  if (!reader.exhausted()) {
    return Status::IoError("trailing bytes in session payload");
  }

  // Cross-field validation: a corrupt-but-checksummed file must still
  // come out as a clean error, never a crash downstream.
  if (locations.size() != num_vertices || masters.size() != num_vertices ||
      last_published.size() != num_vertices ||
      input_sizes.size() != num_vertices ||
      affected_flags.size() != num_vertices) {
    return Status::IoError("session vertex arrays do not match the graph");
  }
  for (const Edge& e : edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      return Status::IoError("session edge references an unknown vertex");
    }
  }
  for (const std::vector<DcId>* v : {&locations, &masters, &last_published}) {
    for (DcId dc : *v) {
      if (dc < 0 || dc >= num_dcs) {
        return Status::IoError("session references an unknown DC");
      }
    }
  }
  if (pool.num_vertices != num_vertices || pool.num_dcs != num_dcs) {
    return Status::IoError("session pool dimensions do not match");
  }

  Topology topology{std::move(dcs)};
  RLCUT_RETURN_IF_ERROR(topology.Validate());

  if (options.initial.budget == 0) options.initial.budget = cost_budget;
  if (options.incremental.budget == 0) {
    options.incremental.budget = cost_budget;
  }
  std::unique_ptr<RLCutSession> session(
      new RLCutSession(std::move(options)));
  session->num_vertices_ = static_cast<VertexId>(num_vertices);
  session->edges_ = std::move(edges);
  session->topology_ = std::move(topology);
  session->locations_ = std::move(locations);
  session->workload_ = std::move(workload);
  session->theta_ = theta;
  session->cost_budget_ = cost_budget;
  session->seed_ = seed;

  GraphBuilder builder(session->num_vertices_);
  builder.AddEdges(session->edges_);
  session->graph_ = std::make_unique<Graph>(std::move(builder).Build());
  // The serialized sizes are authoritative (bit-identical resume).
  session->input_sizes_ = std::move(input_sizes);
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = session->theta_;
  config.workload = session->workload_;
  session->state_ = std::make_unique<PartitionState>(
      session->graph_.get(), &session->topology_, &session->locations_,
      &session->input_sizes_, config);
  session->state_->ResetDerived(masters);
  session->pool_ = std::make_unique<AutomatonPool>(
      session->num_vertices_, session->topology_.num_dcs(),
      session->options_.incremental);
  RLCUT_RETURN_IF_ERROR(session->pool_->Restore(pool));

  session->trained_once_ = trained_once != 0;
  session->version_ = version;
  session->last_published_masters_ = std::move(last_published);
  session->last_budget_.max_vertices = budget_vertices;
  session->last_budget_.max_bytes = budget_bytes;
  session->watermark_ = SimTime::Micros(watermark_micros);
  session->affected_flags_ = std::move(affected_flags);
  obs::DefaultRegistry().GetCounter("serve.checkpoint_loads")->Increment();
  return session;
}

}  // namespace rlcut
