#ifndef RLCUT_RLCUT_SESSION_H_
#define RLCUT_RLCUT_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/stream.h"
#include "partition/partition_state.h"
#include "partition/plan_delta.h"
#include "partition/session.h"
#include "rlcut/automaton.h"
#include "rlcut/options.h"

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
/// The session owns the problem (fixed vertex set, accumulating edge
/// set, effective topology) and a persistent per-vertex automaton pool.
/// ApplyDelta buffers a micro-batch in the edge log at a cost that
/// depends on the batch, not the graph; MaybeReoptimize warm-resumes
/// the automata of the affected vertices only (full training on the
/// first call) and clamps the plan to the migration budget;
/// PublishPlan versions the result.
/// SaveCheckpoint/Restore make the whole session crash-tolerant: a
/// restored session continues the stream bit-identically (the trainer
/// is re-seeded per pass from the options, so state + pool + pending
/// set determine every subsequent decision).
///
/// The live graph, the input sizes and the PartitionState are
/// re-derived lazily: once, in place, at the first reader after one or
/// more applies (MaybeReoptimize, PublishPlan, UpdateTopology,
/// SaveCheckpoint, live_state), from the whole edge log and the
/// carried masters. Masters change only inside readers, so this yields
/// exactly the state an eager per-apply rebuild would. Each re-derive
/// is traced as a `session/rebuild` span inside its reader and counted
/// in `serve.state_rebuilds`.
///
/// A session is single-threaded: even its const readers may re-derive
/// the live state, so calls must not overlap.
class RLCutSession : public PartitioningSession {
 public:
  /// Copies the problem out of `ctx` (validated). The initial plan is
  /// "every vertex masters at its initial location L_v" — the zero-
  /// migration baseline the first publish is budgeted against. A zero
  /// RLCutOptions::budget in `options` inherits ctx.budget.
  static Result<std::unique_ptr<RLCutSession>> Open(
      const PartitionerContext& ctx, RLCutSessionOptions options);

  std::string method() const override { return "RLCut"; }

  /// Validates a micro-batch, appends it to the edge log and marks its
  /// endpoints for the next re-optimization; the cost is independent of
  /// the graph size. The live state is re-derived at the next reader,
  /// so apply_seconds measures buffering only. Fault site:
  /// session.ingest_fail.
  Result<ApplyResult> ApplyDelta(const MicroBatch& batch) override;

  /// Warm-trains the pending affected vertices (all vertices on the
  /// first call), then clamps the plan so the move-set vs the last
  /// published plan respects `budget`.
  Result<ReoptimizeResult> MaybeReoptimize(
      const MigrationBudget& budget) override;

  /// Versions the live plan. The migration delta vs the previous
  /// published version respects the last MaybeReoptimize budget (a
  /// publish-time re-clamp guarantees it even if the state drifted).
  /// Fault site: session.publish_fail.
  Result<PublishedPlan> PublishPlan() override;

  /// The live state over every applied edge (re-derived first if
  /// batches were applied since the last reader).
  const PartitionState* live_state() const override {
    Refresh();
    return state_.get();
  }

  /// Re-prices the live layout under a new effective topology (same DC
  /// count), after re-deriving pending batches under the old one, and,
  /// at or above the drift threshold, marks the vertices
  /// replicated in changed DCs for re-training — the TopologySchedule
  /// integration point; stream batches and topology events share the
  /// SimTime timeline.
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

  // ---- Introspection --------------------------------------------------

  // ---- Process-split replica sync (docs/distributed.md) ---------------

  /// Attaches an external replica sink: every re-optimization pass
  /// feeds it the trainer's deltas, then a post-clamp correction delta,
  /// so the far side tracks the publishable plan. Not owned; must
  /// outlive the session (or be detached with nullptr).
  void SetReplicaSink(ReplicaSink* sink) { replica_sink_ = sink; }

  /// Outcome of the latest pass's replica flush (OK when no sink).
  const Status& replica_status() const { return replica_status_; }

  /// True if the sink ever reported degraded operation this session.
  bool replica_degraded() const { return replica_degraded_; }

  SimTime watermark() const { return watermark_; }
  uint64_t version() const { return version_; }
  uint64_t num_edges() const { return edges_.size(); }
  VertexId num_vertices() const { return num_vertices_; }
  const Topology& topology() const { return topology_; }
  const std::vector<DcId>& last_published_masters() const {
    return last_published_masters_;
  }

 private:
  explicit RLCutSession(RLCutSessionOptions options);

  // The one re-derive, run by every reader: when batches were applied
  // since the last one, rebuilds graph_ in place from edges_, reassigns
  // input_sizes_ from the new degrees and re-derives state_ from its
  // own (carried) masters. Const so that const readers can call it;
  // safe because a session is single-threaded.
  void Refresh() const;

  // Decodes one checkpoint payload into a fresh session (needs the
  // private constructor, hence a member).
  static Result<std::unique_ptr<RLCutSession>> DecodeSession(
      const std::string& payload, RLCutSessionOptions options);
  static Result<std::unique_ptr<RLCutSession>> LoadSessionFile(
      const std::string& path, const RLCutSessionOptions& options);

  std::vector<VertexId> TakePendingAffected();

  RLCutSessionOptions options_;

  // Owned problem instance.
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
  Topology topology_;
  std::vector<DcId> locations_;
  mutable std::vector<double> input_sizes_;  // re-derived by Refresh
  Workload workload_;
  uint32_t theta_ = 100;
  double cost_budget_ = 0;
  uint64_t seed_ = 1;

  // Re-derived in place by Refresh; the objects keep their addresses.
  mutable std::unique_ptr<Graph> graph_;
  mutable std::unique_ptr<PartitionState> state_;
  // True when edges_ holds batches that graph_/input_sizes_/state_ do
  // not reflect yet.
  mutable bool stale_ = false;
  std::unique_ptr<AutomatonPool> pool_;

  // Session lifecycle state.
  bool trained_once_ = false;
  std::vector<uint8_t> affected_flags_;  // pending re-train marks
  uint64_t version_ = 0;
  std::vector<DcId> last_published_masters_;
  MigrationBudget last_budget_;
  SimTime watermark_ = SimTime::Min();

  // Process-split replica sync (not part of the checkpoint: runtime
  // wiring, like thread count).
  ReplicaSink* replica_sink_ = nullptr;
  Status replica_status_;
  bool replica_degraded_ = false;
};

}  // namespace rlcut

#endif  // RLCUT_RLCUT_SESSION_H_
