#include "rlcut/checkpoint.h"

#include <cstdio>
#include <utility>

#include "common/atomic_file.h"
#include "common/byte_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlcut {
namespace {

// The envelope and the ByteWriter/ByteReader codecs live in
// common/byte_io.h, shared with the session checkpoint format
// (partition/session_io). Host endianness is fine: this is a
// single-machine pause/resume file, not an interchange format.
constexpr char kMagic[8] = {'R', 'L', 'C', 'U', 'T', 'C', 'K', 'P'};
// v2 added a uint32 stream count ahead of the history, which must agree
// with the number of saved PRNG streams (it was the shard count of the
// sharded builds that wrote one stream per shard). The trainer writes
// one stream; v1 files, and v2 files with several streams, still load.
constexpr uint32_t kMinFormatVersion = 1;
constexpr uint32_t kFormatVersion = 2;

std::string EncodePayload(const TrainerCheckpoint& checkpoint) {
  ByteWriter writer;
  writer.Write<uint64_t>(checkpoint.num_vertices);
  writer.Write<uint32_t>(checkpoint.num_dcs);
  writer.Write<uint64_t>(checkpoint.seed);
  writer.Write<uint32_t>(static_cast<uint32_t>(checkpoint.model));
  writer.Write<uint32_t>(checkpoint.theta);
  writer.WriteVector(checkpoint.masters);

  writer.Write<uint64_t>(checkpoint.pool.num_vertices);
  writer.Write<int32_t>(checkpoint.pool.num_dcs);
  writer.WriteVector(checkpoint.pool.prob);
  writer.WriteVector(checkpoint.pool.mean_q);
  writer.WriteVector(checkpoint.pool.count);

  const TrainerSession& session = checkpoint.session;
  writer.Write<int32_t>(session.next_step);
  writer.Write<uint8_t>(session.started ? 1 : 0);
  writer.Write<uint8_t>(session.finished ? 1 : 0);
  writer.Write<int64_t>(session.visits_remaining);
  writer.Write<uint32_t>(
      static_cast<uint32_t>(session.rng_states.size()));  // v2
  writer.Write<uint64_t>(session.history.size());
  for (const StepStats& step : session.history) {
    writer.Write<int32_t>(step.step);
    writer.Write<double>(step.sample_rate);
    writer.Write<uint64_t>(step.num_agents);
    writer.Write<double>(step.seconds);
    writer.Write<double>(step.transfer_seconds);
    writer.Write<double>(step.cost_dollars);
    writer.Write<uint64_t>(step.migrations);
    writer.Write<uint64_t>(step.rollbacks);
  }
  writer.Write<uint64_t>(session.rng_states.size());
  for (const auto& rng_state : session.rng_states) {
    for (uint64_t word : rng_state) writer.Write<uint64_t>(word);
  }
  return writer.bytes();
}

Status DecodePayload(const std::string& payload, uint32_t version,
                     TrainerCheckpoint* checkpoint) {
  ByteReader reader(payload);
  uint32_t model = 0;
  uint64_t vertex_count = 0;
  bool ok = reader.Read(&checkpoint->num_vertices) &&
            reader.Read(&checkpoint->num_dcs) &&
            reader.Read(&checkpoint->seed) && reader.Read(&model) &&
            reader.Read(&checkpoint->theta) &&
            reader.ReadVector(&checkpoint->masters) &&
            reader.Read(&vertex_count) &&
            reader.Read(&checkpoint->pool.num_dcs) &&
            reader.ReadVector(&checkpoint->pool.prob) &&
            reader.ReadVector(&checkpoint->pool.mean_q) &&
            reader.ReadVector(&checkpoint->pool.count);
  if (!ok) return Status::IoError("truncated checkpoint payload");
  if (model > static_cast<uint32_t>(ComputeModel::kEdgeCut)) {
    return Status::IoError("checkpoint has an unknown compute model");
  }
  checkpoint->model = static_cast<ComputeModel>(model);
  checkpoint->pool.num_vertices = static_cast<VertexId>(vertex_count);

  TrainerSession& session = checkpoint->session;
  uint8_t started = 0;
  uint8_t finished = 0;
  uint64_t history_size = 0;
  uint32_t stream_count = 0;
  if (!reader.Read(&session.next_step) || !reader.Read(&started) ||
      !reader.Read(&finished) ||
      !reader.Read(&session.visits_remaining)) {
    return Status::IoError("truncated checkpoint payload");
  }
  if (version >= 2 && !reader.Read(&stream_count)) {
    return Status::IoError("truncated checkpoint payload");
  }
  if (!reader.Read(&history_size)) {
    return Status::IoError("truncated checkpoint payload");
  }
  session.started = started != 0;
  session.finished = finished != 0;
  // Serialized size of one StepStats record; bounds the history count a
  // corrupt file can claim before the resize below allocates.
  constexpr uint64_t kStepStatsWireBytes =
      sizeof(int32_t) + 3 * sizeof(uint64_t) + 4 * sizeof(double);
  if (history_size > reader.remaining() / kStepStatsWireBytes) {
    return Status::IoError("checkpoint history count exceeds payload size");
  }
  session.history.resize(history_size);
  for (StepStats& step : session.history) {
    if (!reader.Read(&step.step) || !reader.Read(&step.sample_rate) ||
        !reader.Read(&step.num_agents) || !reader.Read(&step.seconds) ||
        !reader.Read(&step.transfer_seconds) ||
        !reader.Read(&step.cost_dollars) ||
        !reader.Read(&step.migrations) || !reader.Read(&step.rollbacks)) {
      return Status::IoError("truncated checkpoint payload");
    }
  }
  uint64_t rng_count = 0;
  if (!reader.Read(&rng_count)) {
    return Status::IoError("truncated checkpoint payload");
  }
  constexpr uint64_t kRngStateWireBytes = 4 * sizeof(uint64_t);
  if (rng_count > reader.remaining() / kRngStateWireBytes) {
    return Status::IoError("checkpoint rng state count exceeds payload size");
  }
  session.rng_states.resize(rng_count);
  for (auto& rng_state : session.rng_states) {
    uint64_t nonzero = 0;
    for (uint64_t& word : rng_state) {
      if (!reader.Read(&word)) {
        return Status::IoError("truncated checkpoint payload");
      }
      nonzero |= word;
    }
    // xoshiro256** never reaches the all-zero state, so a saved file
    // cannot legitimately contain one; restoring it would abort inside
    // Rng::SetState when the resumed trainer reinstates worker PRNGs.
    if (nonzero == 0) {
      return Status::IoError("checkpoint contains an all-zero rng state");
    }
  }
  if (version >= 2 && stream_count != 0 && rng_count != 0 &&
      stream_count != rng_count) {
    return Status::IoError(
        "checkpoint stream count disagrees with its rng state count");
  }
  if (!reader.exhausted()) {
    return Status::IoError("trailing bytes in checkpoint payload");
  }
  return Status::Ok();
}

}  // namespace

TrainerCheckpoint CaptureCheckpoint(const PartitionState& state,
                                    const AutomatonPool& pool,
                                    const TrainerSession& session,
                                    uint64_t seed) {
  TrainerCheckpoint checkpoint;
  checkpoint.num_vertices = state.graph().num_vertices();
  checkpoint.num_dcs = static_cast<uint32_t>(state.num_dcs());
  checkpoint.seed = seed;
  checkpoint.model = state.config().model;
  checkpoint.theta = state.config().theta;
  checkpoint.masters = state.masters();
  checkpoint.pool = pool.Snapshot();
  checkpoint.session = session;
  // A fresh Train call decides where to pause; the saved cursor only
  // records where the run stands.
  checkpoint.session.stop_after_step = -1;
  checkpoint.session.paused = false;
  return checkpoint;
}

Status RestoreCheckpoint(const TrainerCheckpoint& checkpoint,
                         PartitionState* state, AutomatonPool* pool,
                         TrainerSession* session) {
  if (state == nullptr || pool == nullptr || session == nullptr) {
    return Status::InvalidArgument("null restore target");
  }
  if (checkpoint.num_vertices != state->graph().num_vertices()) {
    return Status::FailedPrecondition(
        "checkpoint vertex count does not match the graph");
  }
  if (checkpoint.num_dcs != static_cast<uint32_t>(state->num_dcs())) {
    return Status::FailedPrecondition(
        "checkpoint DC count does not match the topology");
  }
  if (checkpoint.model != state->config().model) {
    return Status::FailedPrecondition(
        "checkpoint compute model does not match the state");
  }
  if (checkpoint.theta != state->config().theta) {
    return Status::FailedPrecondition(
        "checkpoint theta does not match the state");
  }
  if (checkpoint.masters.size() != state->graph().num_vertices()) {
    return Status::FailedPrecondition(
        "checkpoint masters array does not match the graph");
  }
  for (DcId dc : checkpoint.masters) {
    if (dc < 0 || dc >= state->num_dcs()) {
      return Status::OutOfRange("checkpoint references an unknown DC");
    }
  }
  RLCUT_RETURN_IF_ERROR(pool->Restore(checkpoint.pool));
  state->ResetDerived(checkpoint.masters);
  *session = checkpoint.session;
  return Status::Ok();
}

Status SaveTrainerCheckpoint(const TrainerCheckpoint& checkpoint,
                             const std::string& path) {
  obs::TraceSpan span("checkpoint/save", "checkpoint");
  const std::string payload = EncodePayload(checkpoint);
  span.AddArg("bytes", static_cast<double>(payload.size()));
  RLCUT_RETURN_IF_ERROR(AtomicWriteFile(
      path, WrapEnvelope(kMagic, kFormatVersion, payload), "checkpoint"));
  obs::DefaultRegistry().GetCounter("checkpoint.saves")->Increment();
  return Status::Ok();
}

std::string CheckpointFallbackPath(const std::string& path) {
  return path + ".prev";
}

Status SaveTrainerCheckpointRotating(const TrainerCheckpoint& checkpoint,
                                     const std::string& path) {
  // Best-effort rotation: if `path` exists, park it in the fallback
  // slot before the atomic replace. A crash between the two leaves no
  // primary but an intact fallback, which the loader handles.
  std::rename(path.c_str(), CheckpointFallbackPath(path).c_str());
  return SaveTrainerCheckpoint(checkpoint, path);
}

Result<TrainerCheckpoint> LoadTrainerCheckpoint(const std::string& path) {
  obs::TraceSpan span("checkpoint/load", "checkpoint");
  uint32_t version = 0;
  Result<std::string> payload =
      ReadEnvelopeFile(path, kMagic, kMinFormatVersion, kFormatVersion,
                       "checkpoint", &version);
  if (!payload.ok()) return payload.status();
  TrainerCheckpoint checkpoint;
  if (Status s = DecodePayload(*payload, version, &checkpoint); !s.ok()) {
    return Status(s.code(), path + ": " + s.message());
  }
  obs::DefaultRegistry().GetCounter("checkpoint.loads")->Increment();
  return checkpoint;
}

Result<LoadedCheckpoint> LoadTrainerCheckpointWithFallback(
    const std::string& path) {
  LoadedCheckpoint loaded;
  Result<TrainerCheckpoint> primary = LoadTrainerCheckpoint(path);
  if (primary.ok()) {
    loaded.checkpoint = *std::move(primary);
    loaded.loaded_from = path;
    return loaded;
  }
  const std::string fallback = CheckpointFallbackPath(path);
  Result<TrainerCheckpoint> previous = LoadTrainerCheckpoint(fallback);
  if (!previous.ok()) {
    // The primary's diagnosis is the interesting one; a missing
    // fallback slot is the normal state for single-shot checkpoints.
    return primary.status();
  }
  obs::DefaultRegistry()
      .GetCounter("checkpoint.fallback_loads")
      ->Increment();
  loaded.checkpoint = *std::move(previous);
  loaded.loaded_from = fallback;
  loaded.used_fallback = true;
  loaded.primary_error = primary.status().ToString();
  return loaded;
}

}  // namespace rlcut
