#ifndef RLCUT_RLCUT_CHECKPOINT_H_
#define RLCUT_RLCUT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/partition_state.h"
#include "rlcut/automaton.h"
#include "rlcut/trainer.h"

namespace rlcut {

/// A paused RLCut training run, fully serializable: the problem
/// fingerprint (validated on resume), the plan at the pause point, the
/// learned automaton state, and the trainer's resumable cursor.
/// Restoring all three onto a freshly built problem and calling
/// Train(state, eligible, pool, &session) continues the run
/// bit-identically for deterministic budgets (see TrainerSession).
struct TrainerCheckpoint {
  // ---- Problem fingerprint -------------------------------------------
  uint64_t num_vertices = 0;
  uint32_t num_dcs = 0;
  uint64_t seed = 0;
  ComputeModel model = ComputeModel::kHybridCut;
  uint32_t theta = 0;

  // ---- Plan at the pause point ---------------------------------------
  std::vector<DcId> masters;

  // ---- Learned automaton state ---------------------------------------
  AutomatonPoolState pool;

  // ---- Trainer cursor -------------------------------------------------
  TrainerSession session;
};

/// Snapshots a paused run. `session` should come from a Train call that
/// stopped (its stop_after_step is not serialized; a restored session
/// resumes to completion unless the caller pauses it again).
TrainerCheckpoint CaptureCheckpoint(const PartitionState& state,
                                    const AutomatonPool& pool,
                                    const TrainerSession& session,
                                    uint64_t seed);

/// Reinstates a checkpoint onto a freshly built problem: validates the
/// fingerprint against `state`'s graph/topology/config, applies the
/// masters, restores the pool, and fills `session` for the continuing
/// Train call.
Status RestoreCheckpoint(const TrainerCheckpoint& checkpoint,
                         PartitionState* state, AutomatonPool* pool,
                         TrainerSession* session);

/// Binary file format (see docs/dynamic_environments.md):
///   [8]  magic "RLCUTCKP"
///   [4]  format version (currently 2; v1 files still load)
///   [8]  payload size in bytes
///   [..] payload (host-endian fixed-width fields and arrays)
///   [8]  FNV-1a 64-bit checksum of the payload
/// v2 added the PRNG stream count to the payload; the trainer writes
/// one stream. v1 files and v2 files with several streams (written by
/// the sharded builds, one per shard) still load; which of them resume
/// is RLCutTrainer::ValidateResume's call. Loading rejects bad magic,
/// unsupported versions, truncation and checksum mismatches with
/// distinct error messages.
///
/// Saves are crash-consistent (docs/robustness.md): the file is staged
/// to `path`+".tmp", fsynced, and renamed over `path`, so a crash at
/// any point leaves either the previous checkpoint or none — never a
/// torn one.
Status SaveTrainerCheckpoint(const TrainerCheckpoint& checkpoint,
                             const std::string& path);
Result<TrainerCheckpoint> LoadTrainerCheckpoint(const std::string& path);

/// The rotation slot SaveTrainerCheckpointRotating keeps the previous
/// checkpoint in: `path` + ".prev".
std::string CheckpointFallbackPath(const std::string& path);

/// Crash-consistent save that additionally rotates an existing `path`
/// to CheckpointFallbackPath(path) first, so there is always a
/// last-good file to fall back to even if `path` itself is later lost
/// or corrupted. The trainer's periodic auto-checkpoint uses this.
Status SaveTrainerCheckpointRotating(const TrainerCheckpoint& checkpoint,
                                     const std::string& path);

/// A checkpoint loaded by LoadTrainerCheckpointWithFallback, plus where
/// it came from.
struct LoadedCheckpoint {
  TrainerCheckpoint checkpoint;
  /// The file that actually loaded (`path` or the fallback slot).
  std::string loaded_from;
  bool used_fallback = false;
  /// Why the primary was rejected when used_fallback is true.
  std::string primary_error;
};

/// Loads `path`; if it is missing, truncated or corrupt, falls back to
/// CheckpointFallbackPath(path). Fails only when both are unusable
/// (the primary's error message is reported).
Result<LoadedCheckpoint> LoadTrainerCheckpointWithFallback(
    const std::string& path);

}  // namespace rlcut

#endif  // RLCUT_RLCUT_CHECKPOINT_H_
