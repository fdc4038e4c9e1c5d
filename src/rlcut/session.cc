#include "rlcut/session.h"

#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/byte_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlcut {
namespace {

constexpr char kSessionMagic[8] = {'R', 'L', 'C', 'U', 'T', 'S', 'S', 'N'};
constexpr uint32_t kSessionFormatVersion = 1;

}  // namespace

RLCutSession::RLCutSession(const PartitionerContext& ctx,
                           RLCutSessionOptions options)
    : PartitioningSession(ctx, ComputeModel::kHybridCut),
      options_(std::move(options)),
      pool_(std::make_unique<AutomatonPool>(
          num_vertices_, topology_.num_dcs(), options_.incremental)) {}

Result<std::unique_ptr<RLCutSession>> RLCutSession::Open(
    const PartitionerContext& ctx, RLCutSessionOptions options) {
  RLCUT_RETURN_IF_ERROR(ValidatePartitionerContext(ctx));
  if (options.initial.budget == 0) options.initial.budget = ctx.budget;
  if (options.incremental.budget == 0) options.incremental.budget = ctx.budget;
  return std::unique_ptr<RLCutSession>(
      new RLCutSession(ctx, std::move(options)));
}

void RLCutSession::Adapt(std::vector<VertexId> eligible, bool first_pass) {
  // The first pass trains once under the initial options; every later
  // pass reuses the session's trainer, and with it the scoring team's
  // threads. Train keeps no state between calls, so reuse changes
  // nothing the trainer decides.
  std::unique_ptr<RLCutTrainer> initial;
  if (first_pass) {
    initial = std::make_unique<RLCutTrainer>(options_.initial);
  } else if (trainer_ == nullptr) {
    trainer_ = std::make_unique<RLCutTrainer>(options_.incremental);
  }
  RLCutTrainer& trainer = first_pass ? *initial : *trainer_;
  trainer.Train(state_.get(), std::move(eligible), pool_.get());
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

  writer.Write<uint8_t>(reoptimized_once_ ? 1 : 0);
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
  // The serialized sizes are authoritative (bit-identical resume).
  session->input_sizes_ = std::move(input_sizes);
  session->BuildLiveState(ComputeModel::kHybridCut, masters);
  session->pool_ = std::make_unique<AutomatonPool>(
      session->num_vertices_, session->topology_.num_dcs(),
      session->options_.incremental);
  RLCUT_RETURN_IF_ERROR(session->pool_->Restore(pool));

  session->reoptimized_once_ = trained_once != 0;
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
