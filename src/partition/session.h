#ifndef RLCUT_PARTITION_SESSION_H_
#define RLCUT_PARTITION_SESSION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/topology.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/stream.h"
#include "partition/migration.h"
#include "partition/partition_state.h"
#include "partition/plan_delta.h"
#include "partition/workload.h"

namespace rlcut {

/// Everything a partitioner needs to run: the problem instance of
/// Sec. III plus method-wide knobs.
struct PartitionerContext {
  const Graph* graph = nullptr;
  const Topology* topology = nullptr;
  /// Initial vertex locations L_v.
  const std::vector<DcId>* locations = nullptr;
  /// Input data sizes d_v (bytes).
  const std::vector<double>* input_sizes = nullptr;
  /// Workload whose traffic the partitioning is optimized for.
  Workload workload = Workload::PageRank();
  /// Hybrid-cut high-degree threshold.
  uint32_t theta = 100;
  /// Budget B on total inter-DC communication cost (Eq. 7), dollars.
  /// Only budget-aware methods (Geo-Cut, RLCut) consult it.
  double budget = 0;
  uint64_t seed = 1;
};

/// Validates everything a partitioner or session assumes about a
/// context: non-null graph/topology/locations/input_sizes, location and
/// size vectors covering every vertex, locations within the topology's
/// DC range, and a non-negative budget. Returns InvalidArgument with a
/// precise message instead of aborting.
Status ValidatePartitionerContext(const PartitionerContext& ctx);

/// Cap on how much a single published plan may move relative to the
/// previously published plan (or the initial locations L_v before the
/// first publish). The default is unlimited.
struct MigrationBudget {
  /// Maximum vertices whose master may differ from the baseline.
  uint64_t max_vertices = std::numeric_limits<uint64_t>::max();
  /// Maximum input-data bytes (sum of d_v over moved vertices).
  double max_bytes = std::numeric_limits<double>::infinity();

  static MigrationBudget Unlimited() { return MigrationBudget{}; }

  bool IsUnlimited() const {
    return max_vertices == std::numeric_limits<uint64_t>::max() &&
           max_bytes == std::numeric_limits<double>::infinity();
  }
};

/// Outcome of ingesting one micro-batch.
struct ApplyResult {
  uint64_t edges_applied = 0;
  /// Distinct endpoints of the applied edges (the agents the next
  /// re-optimization will train).
  uint64_t vertices_affected = 0;
  double apply_seconds = 0;
  /// Stream time after the batch.
  SimTime watermark;
};

/// Outcome of one re-optimization pass.
struct ReoptimizeResult {
  /// False when there was nothing to adapt (no pending affected
  /// vertices); the plan is unchanged.
  bool reoptimized = false;
  /// Vertices the pass handed to the method: all of them on the first
  /// pass, the changed ones afterwards (a cold re-run still
  /// re-partitions everything).
  uint64_t trained_vertices = 0;
  /// Moves undone by the migration-budget clamp.
  uint64_t reverted_vertices = 0;
  double overhead_seconds = 0;
  /// Objective of the (possibly clamped) live plan.
  Objective objective;
};

/// One published plan version: what a serving layer would deploy.
struct PublishedPlan {
  /// Monotonically increasing, starting at 1.
  uint64_t version = 0;
  std::vector<DcId> masters;
  /// Deployment delta vs the previously published plan (initial
  /// locations for version 1). Always within the session's last
  /// migration budget.
  MigrationSummary migration;
  Objective objective;
  /// Moves undone by the publish-time budget re-check (normally 0; the
  /// re-optimization already clamped).
  uint64_t reverted_vertices = 0;
};

/// A long-lived partitioning over a live problem: the session owns the
/// problem instance (fixed vertex set, an edge log that batches grow
/// and removals shrink, topology, initial locations) and carries its
/// method's learned state across micro-batches.
///
///   Open(problem) -> ApplyDelta(batch)* / RemoveEdges(edges)*
///     -> MaybeReoptimize(budget) -> PublishPlan() -> ... repeat ...
///
/// This class is the one implementation of that loop: one micro-batch
/// validation, one edge log, one lazy in-place re-derive of the live
/// graph and state, and one re-optimize/publish skeleton around a
/// per-method Adapt hook. The kinds differ only in Adapt:
/// RLCutSession (rlcut/session.h) warm-trains the changed vertices'
/// automata, SpinnerSession and LeopardSession (baselines/) adapt
/// incrementally, and OneShotSession (baselines/partitioner.h) re-runs
/// a batch method cold. The streaming daemon (tools/rlcut_serve) drives
/// the loop for any registry method.
///
/// The live graph, the input sizes (which grow with degree) and the
/// PartitionState are re-derived lazily: once, in place, at the first
/// reader after one or more changes (MaybeReoptimize, PublishPlan,
/// live_state and the subclasses' readers), from the whole edge log and
/// the carried masters. An explicit (vertex-cut) edge placement is
/// carried by (src, dst); edges new to the log come back unplaced for
/// the method to place. Each re-derive is traced as a `session/rebuild`
/// span inside its reader and counted in `serve.state_rebuilds`.
///
/// A session replicates what it deploys: an attached ReplicaSink holds
/// the last published plan, version for version (SetReplicaSink).
///
/// Error handling: every method returns Result<>/Status; malformed
/// input (out-of-range endpoints, non-monotone watermarks, calls out of
/// order) yields InvalidArgument/OutOfRange/FailedPrecondition, never a
/// crash. A session is single-threaded: even its const readers may
/// re-derive the live state, so calls must not overlap.
class PartitioningSession {
 public:
  virtual ~PartitioningSession() = default;
  PartitioningSession(const PartitioningSession&) = delete;
  PartitioningSession& operator=(const PartitioningSession&) = delete;

  /// Registry name of the underlying method, e.g. "RLCut".
  virtual std::string method() const = 0;

  /// Ingests one micro-batch of timestamped edge insertions (see
  /// graph/stream.h for the buffer that builds deterministic batches
  /// from out-of-order transports): validates it, appends it to the
  /// edge log and marks its endpoints for the next re-optimization, at
  /// a cost independent of the graph size. Edges must be sorted by time
  /// and at or before the batch watermark (InvalidArgument), the
  /// watermark must not move backwards (InvalidArgument), and endpoints
  /// must lie in the fixed vertex set (OutOfRange); a rejected batch
  /// changes nothing. Fault site: session.ingest_fail.
  Result<ApplyResult> ApplyDelta(const MicroBatch& batch);

  /// Removes edges with multiset semantics: each entry deletes one
  /// matching (src, dst) occurrence from the edge log, the earliest
  /// first; entries with no occurrence left are ignored. Marks the
  /// endpoints of the removed edges for the next re-optimization;
  /// edges_applied counts the removed edges. One scan of the edge log.
  /// OutOfRange, removing nothing, if an entry names a vertex outside
  /// the fixed vertex set.
  Result<ApplyResult> RemoveEdges(const std::vector<Edge>& edges);

  /// Adapts the plan to every change since the last call (the whole
  /// problem on the first call), then clamps the plan so the move-set
  /// vs the last published plan stays within `budget`. No-ops
  /// (reoptimized=false, plan unchanged) when nothing changed.
  Result<ReoptimizeResult> MaybeReoptimize(const MigrationBudget& budget);

  /// Snapshots the live plan as a new published version. The migration
  /// delta vs the previous published version respects the budget of the
  /// last MaybeReoptimize on every publish (a publish-time re-clamp
  /// guarantees it even if input sizes shifted since). An attached
  /// replica sink receives the moved set as one delta and is flushed.
  /// FailedPrecondition before the first successful MaybeReoptimize.
  /// Fault site: session.publish_fail.
  Result<PublishedPlan> PublishPlan();

  /// Attaches a replica sink (docs/distributed.md): it is begun at once
  /// with the last published plan, {version(), num_dcs,
  /// last_published_masters()} (version 0 is the initial plan), and
  /// flushed; every PublishPlan then pushes the new version's moved set
  /// as one delta, chained on sink->version(), and flushes. So the far
  /// side's version and masters equal the last PublishedPlan. A sink
  /// whose Begin or PushDelta fails is no longer fed; a failed Flush is
  /// retried at the next publish. Not owned; must outlive the session
  /// or be detached with nullptr. Runtime wiring, not checkpointed: a
  /// restored session is re-attached and begins the sink at its
  /// restored published version.
  void SetReplicaSink(ReplicaSink* sink);

  /// Outcome of the sink's latest begin or publish: OK when its Flush
  /// confirmed the far side holds the last published plan, and when no
  /// sink is attached.
  const Status& replica_status() const { return replica_status_; }

  /// True if the sink reported degraded operation since it was attached.
  bool replica_degraded() const { return replica_degraded_; }

  /// The live state over every applied edge, re-derived first if
  /// changes are pending. Before the first re-optimization it holds the
  /// initial plan: every master at L_v (vertex-cut edges unplaced).
  const PartitionState* live_state() const {
    Refresh();
    return state_.get();
  }

  SimTime watermark() const { return watermark_; }
  uint64_t version() const { return version_; }
  uint64_t num_edges() const { return edges_.size(); }
  VertexId num_vertices() const { return num_vertices_; }
  const Topology& topology() const { return topology_; }
  const std::vector<DcId>& last_published_masters() const {
    return last_published_masters_;
  }

 protected:
  /// Copies the problem out of `ctx`, which must be valid
  /// (ValidatePartitionerContext), and starts the live state under
  /// `model` at the initial plan: every master at L_v, the zero-
  /// migration baseline the first publish is budgeted against.
  PartitioningSession(const PartitionerContext& ctx, ComputeModel model);

  /// An empty session, for a subclass that restores every member from a
  /// checkpoint and then calls BuildLiveState.
  PartitioningSession() = default;

  /// The method's adaptation of the (re-derived) live state, run by
  /// MaybeReoptimize before the budget clamp. `eligible` lists, in
  /// ascending order, every vertex on the first pass (`first_pass`) and
  /// afterwards the vertices marked since the last pass: endpoints of
  /// applied and removed edges, plus any a subclass marked.
  virtual void Adapt(std::vector<VertexId> eligible, bool first_pass) = 0;

  /// Re-derives the live graph, input sizes and state once, in place,
  /// when changes were applied since the last re-derive. Const so that
  /// const readers can call it; safe because a session is
  /// single-threaded.
  void Refresh() const;

  /// Restore path: builds the live graph from edges_ and the live state
  /// under `model` with `masters`, keeping input_sizes_ as restored.
  void BuildLiveState(ComputeModel model, const std::vector<DcId>& masters);

  /// A context over the session's own problem copies.
  PartitionerContext context() const;

  // The owned problem instance.
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;  // the edge log
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
  // True when edges_ holds changes that graph_/input_sizes_/state_ do
  // not reflect yet.
  mutable bool stale_ = false;

  // Lifecycle state.
  bool reoptimized_once_ = false;
  std::vector<uint8_t> affected_flags_;  // pending re-adapt marks
  uint64_t version_ = 0;
  std::vector<DcId> last_published_masters_;
  MigrationBudget last_budget_;
  SimTime watermark_ = SimTime::Min();

 private:
  // Constructs state_ over graph_ under `model`, every master at L_v.
  void BuildState(ComputeModel model);

  // Marks `endpoints` for the next pass and the live state stale;
  // returns how many distinct vertices they name.
  uint64_t MarkChanged(std::vector<VertexId> endpoints);

  // Records a Begin or PushDelta outcome and, if the sink took the plan,
  // flushes it. A sink that refused the plan is no longer fed.
  void FlushReplica(const Status& handed_over);

  // Replication runtime wiring (not part of a checkpoint).
  ReplicaSink* replica_sink_ = nullptr;
  Status replica_status_;
  bool replica_degraded_ = false;
};

/// What EnforceMigrationBudget did to the plan.
struct BudgetClampResult {
  /// Moved set vs the baseline after clamping.
  uint64_t vertices_moved = 0;
  double bytes_moved = 0;
  /// Moves reverted to get under the caps.
  uint64_t reverted = 0;
};

/// Clamps `state` so that at most budget.max_vertices masters differ
/// from `baseline` and the moved input data is at most budget.max_bytes.
/// Over-budget moves are reverted cheapest-first: each candidate is
/// scored once by the transfer-time delta of moving it back (against
/// the current state: EvaluateMove under derived placement, a SetMaster
/// tried and undone under an explicit one), and reverts proceed in
/// ascending (delta, vertex id) order until both caps hold — a
/// deterministic sort-once greedy. `baseline` and `input_sizes` must
/// cover the state's vertex set.
BudgetClampResult EnforceMigrationBudget(PartitionState* state,
                                         const std::vector<DcId>& baseline,
                                         const std::vector<double>& input_sizes,
                                         const MigrationBudget& budget);

}  // namespace rlcut

#endif  // RLCUT_PARTITION_SESSION_H_
