#ifndef RLCUT_RLCUT_SESSION_H_
#define RLCUT_RLCUT_SESSION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "partition/partition_state.h"
#include "partition/session.h"
#include "rlcut/automaton.h"
#include "rlcut/options.h"
#include "rlcut/trainer.h"

namespace rlcut {

/// Configuration of an RLCutSession.
struct RLCutSessionOptions {
  /// Drives the first (full) optimization pass.
  RLCutOptions initial;
  /// Drives every subsequent affected-only pass; also sizes the
  /// persistent automaton pool.
  RLCutOptions incremental;
  /// Relative topology drift at or above which UpdateTopology marks the
  /// vertices replicated in changed DCs for re-training.
  double drift_threshold = 0.05;
};

/// Outcome of swapping in a new effective topology.
struct TopologyUpdateResult {
  /// TopologyDrift between the previous and the new topology.
  double drift = 0;
  /// Vertices marked for the next MaybeReoptimize (0 below threshold).
  uint64_t affected_marked = 0;
};

/// RLCut's incremental PartitioningSession: the paper's adaptive
/// repartitioning loop as a long-lived object.
///
/// On top of the shared session loop (partition/session.h: edge log,
/// lazy re-derive, budget clamp, publish), the session keeps a
/// persistent per-vertex automaton pool: MaybeReoptimize warm-resumes
/// the automata of the changed vertices only (full training on the
/// first call). UpdateTopology re-prices the plan under a new effective
/// topology and marks the vertices whose traffic crosses changed links.
/// SaveCheckpoint/Restore make the whole session crash-tolerant: a
/// restored session continues the stream bit-identically (the trainer
/// is re-seeded per pass from the options, so state + pool + pending
/// set determine every subsequent decision). UpdateTopology and
/// SaveCheckpoint are readers too: they re-derive pending changes
/// first.
class RLCutSession : public PartitioningSession {
 public:
  /// Copies the problem out of `ctx` (validated). The initial plan is
  /// "every vertex masters at its initial location L_v" — the zero-
  /// migration baseline the first publish is budgeted against. A zero
  /// RLCutOptions::budget in `options` inherits ctx.budget.
  static Result<std::unique_ptr<RLCutSession>> Open(
      const PartitionerContext& ctx, RLCutSessionOptions options);

  std::string method() const override { return "RLCut"; }

  /// Re-prices the live layout under a new effective topology (same DC
  /// count), after re-deriving pending batches under the old one, and,
  /// at or above the drift threshold, marks the vertices
  /// replicated in changed DCs for re-training — the TopologySchedule
  /// integration point; stream batches and topology events share the
  /// SimTime timeline. The next MaybeReoptimize trains them.
  Result<TopologyUpdateResult> UpdateTopology(const Topology& topology);

  // ---- Checkpoint / resume -------------------------------------------

  /// Atomically writes the full session (problem, plan, automaton pool,
  /// publish baseline, pending set, watermark) to `path`, re-deriving
  /// the live state first if batches are pending; "RLCUTSSN" v1
  /// envelope (common/byte_io.h), rotating the previous file to
  /// `path`.prev as a fallback slot.
  Status SaveCheckpoint(const std::string& path) const;

  /// Loads a session saved by SaveCheckpoint. Falls back to
  /// `path`.prev when the primary is corrupt or missing. `options` are
  /// runtime configuration, not part of the checkpoint; pass the same
  /// values for bit-identical continuation.
  static Result<std::unique_ptr<RLCutSession>> Restore(
      const std::string& path, RLCutSessionOptions options);

 protected:
  /// The trainer pass over `eligible`: the initial options on the first
  /// pass, the incremental ones afterwards.
  void Adapt(std::vector<VertexId> eligible, bool first_pass) override;

 private:
  RLCutSession(const PartitionerContext& ctx, RLCutSessionOptions options);
  // Restore path: an empty session DecodeSession fills in.
  explicit RLCutSession(RLCutSessionOptions options)
      : options_(std::move(options)) {}

  // Decodes one checkpoint payload into a fresh session (needs the
  // private constructor, hence a member).
  static Result<std::unique_ptr<RLCutSession>> DecodeSession(
      const std::string& payload, RLCutSessionOptions options);
  static Result<std::unique_ptr<RLCutSession>> LoadSessionFile(
      const std::string& path, const RLCutSessionOptions& options);

  RLCutSessionOptions options_;
  std::unique_ptr<AutomatonPool> pool_;
  // Trains every pass after the first (runtime wiring, not part of the
  // checkpoint).
  std::unique_ptr<RLCutTrainer> trainer_;
};

}  // namespace rlcut

#endif  // RLCUT_RLCUT_SESSION_H_
