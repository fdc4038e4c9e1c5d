#ifndef RLCUT_PARTITION_PARTITION_STATE_H_
#define RLCUT_PARTITION_PARTITION_STATE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "cloud/topology.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "partition/dense_bitset.h"
#include "partition/workload.h"

namespace rlcut {

/// Which differentiated-computation model the runtime uses (Sec. II-B).
/// It determines both the edge-placement rules and which vertices incur
/// gather traffic.
enum class ComputeModel {
  /// PowerLyra hybrid-cut: vertices with in-degree >= theta are
  /// high-degree (gather+apply over mirrors); low-degree vertices compute
  /// at the master and sync mirrors in the apply stage.
  kHybridCut,
  /// PowerGraph vertex-cut: every vertex follows gather+apply.
  kVertexCut,
  /// Pregel-style edge-cut: every vertex is sync-only (apply stage).
  kEdgeCut,
};

/// Static configuration of a PartitionState.
struct PartitionConfig {
  ComputeModel model = ComputeModel::kHybridCut;
  /// High-degree threshold theta (hybrid-cut only).
  uint32_t theta = 100;
  /// Traffic profile of the analytics workload being optimized for.
  Workload workload = Workload::PageRank();
};

/// The two optimization objectives of Eq. 6-7, plus a smooth surrogate.
struct Objective {
  /// Total inter-DC transfer time over all iterations, seconds (Eq. 1
  /// summed over iterations with per-iteration activity scaling).
  double transfer_seconds = 0;
  /// Total inter-DC communication cost: input movement (Eq. 4) plus
  /// runtime upload cost over all iterations (Eq. 5), dollars.
  double cost_dollars = 0;
  /// Sum (rather than max) of per-DC link times over both stages, same
  /// activity scaling. Eq. 1 is a bottleneck objective, so most
  /// single-vertex moves leave it unchanged; this smooth surrogate
  /// gives hill-climbers (RLCut's score function) a gradient on the
  /// plateau. Not part of the paper's objective; used only as a
  /// tie-breaker.
  double smooth_seconds = 0;
};

/// Thread-local scratch for const what-if evaluation (EvaluateMove).
/// One instance per worker thread; reusable across calls. All arrays
/// grow to a high-water mark once and are reused, so steady-state
/// evaluation performs no heap allocation.
class EvalScratch {
 public:
  EvalScratch() = default;

 private:
  friend class PartitionState;

  struct AffectedDelta {
    VertexId v;
    int32_t cnt_from = 0;  // incident-edge count delta at the from-DC
    int32_t cnt_to = 0;
    int32_t in_from = 0;  // in-edge count delta at the from-DC
    int32_t in_to = 0;
  };

  void EnsureSized(VertexId num_vertices, int num_dcs);

  std::vector<AffectedDelta> affected_;
  // Epoch-tagged vertex -> affected_ slot map for O(1) dedup.
  std::vector<uint32_t> slot_;
  std::vector<uint32_t> slot_epoch_;
  uint32_t epoch_ = 0;
  std::vector<EdgeId> moved_edges_;
  // Source/destination DCs of the pending move (kNoDc = unplaced).
  DcId from_dc_ = kNoDc;
  DcId to_dc_ = kNoDc;
  // Flat per-DC aggregate buffers in the live-state layout
  // [gather_up | gather_down | apply_up | apply_down], each num_dcs
  // wide: `work_` holds one hypothetical destination's aggregates,
  // `base_` the destination-independent base shared by every candidate
  // destination in the batched evaluators.
  std::vector<double> work_;
  std::vector<double> base_;
  // Per-destination correction lists for the batched evaluators. An
  // affected neighbor's replica mask is dense on real instances (its
  // edges spread over many masters), so the destinations where it
  // gains a NEW mirror — the complement of its replica mask — are the
  // rare case. Each such firing destination records a correction node
  // holding the bytes to add on top of the shared destination-
  // independent base. Nodes are bucketed by destination as intrusive
  // singly linked lists through `next`.
  struct CorrNode {
    DcId m;        // the vertex's (unchanged) master
    double a;      // apply bytes to add (0 for gather nodes)
    double g;      // gather bytes to add (0 for apply nodes)
    int32_t next;  // previous head of this destination's list, or -1
  };
  std::vector<CorrNode> corr_pool_;
  std::vector<int32_t> corr_head_;  // per-destination list heads
};

/// Mutable partitioning state plus the incremental Eq. 1-5 evaluator.
///
/// This is the single evaluation substrate shared by RLCut and every
/// baseline: a partitioning is (master DC per vertex, DC per edge). For
/// hybrid-cut and edge-cut the edge placement is *derived* from masters
/// by the placement rules; vertex-cut baselines supply explicit edge
/// placements. The state maintains, incrementally under moves:
///
///  * per-vertex per-DC incident/in-edge counts and replica bitmasks,
///    plus one dense bitset per DC (vertex -> "this DC holds a
///    replica") for word-parallel replica scans;
///  * per-DC gather/apply upload/download byte aggregates in one flat
///    structure-of-arrays block, from which transfer time (Eq. 1-3),
///    runtime cost (Eq. 5) and WAN usage follow in O(M);
///  * the input-movement cost (Eq. 4) and an eagerly refreshed cached
///    objective, so CurrentObjective() is a constant-time read.
///
/// MoveMaster (hybrid/edge-cut) and PlaceEdge (explicit) are O(deg) and
/// exactly reversible, which the RL migration step's rollback relies
/// on. EvaluateMove is const and thread-safe, enabling parallel
/// multi-agent score computation against a shared state. All pricing —
/// live, single-eval, batched, and cold rebuild — funnels through one
/// compiled finalize (ObjectiveFromAggregates), which is what keeps the
/// differential oracle's bit-exactness contract on dyadic instances.
class PartitionState {
 public:
  /// All pointers must outlive the state. `initial_locations` are the
  /// L_v of the problem definition; `input_sizes` the d_v in bytes.
  PartitionState(const Graph* graph, const Topology* topology,
                 const std::vector<DcId>* initial_locations,
                 const std::vector<double>* input_sizes,
                 PartitionConfig config);

  // Movable but not copyable (copy via explicit Clone when needed).
  PartitionState(const PartitionState&) = delete;
  PartitionState& operator=(const PartitionState&) = delete;
  PartitionState(PartitionState&&) = default;
  PartitionState& operator=(PartitionState&&) = default;

  // ---- Initialization -----------------------------------------------

  /// Sets masters and derives every edge's DC from the placement rules
  /// of the configured model. Usable for kHybridCut and kEdgeCut.
  ///
  /// A no-op when the state already holds exactly what this call would
  /// produce: the last derive (this call, the constructor's, or
  /// RefreshGraph's) was from `masters`, and no mutator has run since
  /// (MoveMaster, PlaceEdge, SetMaster, ResetWithPlacement,
  /// ResetUnplaced, UpdateTopology). So the common "construct, then
  /// ResetDerived(initial_locations)" pays for one derive, not two. The
  /// inputs the state points at are taken as unchanged since that
  /// derive: after rebuilding the graph or reassigning the input sizes
  /// in place, call RefreshGraph; after changing the topology, call
  /// UpdateTopology.
  void ResetDerived(const std::vector<DcId>& masters);

  /// Sets masters and an explicit per-edge placement (vertex-cut).
  void ResetWithPlacement(const std::vector<DcId>& masters,
                          const std::vector<DcId>& edge_dcs);

  /// Sets masters and marks every edge unplaced; used by streaming
  /// vertex-cut partitioners that call PlaceEdge one edge at a time.
  void ResetUnplaced(const std::vector<DcId>& masters);

  /// Re-prices the current layout under a new effective topology (e.g.
  /// after a TopologySchedule event). The placement and the byte
  /// aggregates are topology-independent, so only the dollar/time views
  /// and the accumulated Eq. 4 move cost change. The new topology must
  /// have the same DC count and outlive the state.
  void UpdateTopology(const Topology* topology);

  /// Re-derives every graph-dependent field, keeping the masters, after
  /// the graph this state points at was rebuilt in place over the same
  /// vertex set (GraphBuilder::BuildInto, e.g. with more edges) and the
  /// input sizes were reassigned in place. Reuses the state's storage;
  /// afterwards every field equals that of a state freshly constructed
  /// over the new graph and reset with ResetDerived(masters()), or, in
  /// explicit-placement mode, with ResetUnplaced(masters()).
  void RefreshGraph();

  // ---- Mutation ------------------------------------------------------

  /// Moves the master of v to DC `to`, rederiving the placement of the
  /// edges the rules tie to v's master. Derived-placement mode only.
  /// Moving back to the previous DC exactly restores the prior state.
  void MoveMaster(VertexId v, DcId to);

  /// Places (or re-places) one edge; explicit-placement mode only.
  void PlaceEdge(EdgeId e, DcId to);

  /// Changes v's master without touching edge placement;
  /// explicit-placement mode only.
  void SetMaster(VertexId v, DcId to);

  // ---- What-if evaluation (const, thread-safe) ------------------------

  /// Objective after hypothetically moving v's master to `to`
  /// (derived-placement mode). Does not modify the state.
  Objective EvaluateMove(VertexId v, DcId to, EvalScratch* scratch) const;

  /// Objective after hypothetically placing edge e at `to`
  /// (explicit-placement mode).
  Objective EvaluatePlaceEdge(EdgeId e, DcId to, EvalScratch* scratch) const;

  /// Batched what-if: fills out[r] with the objective after
  /// hypothetically moving v's master to r, for every r in [0, M).
  /// out[master(v)] is the current objective. Equivalent to M calls to
  /// EvaluateMove — bit-exact on dyadic-exact instances (see
  /// docs/correctness.md) — but the O(deg) affected-set collection and
  /// the destination-independent "remove old contribution" half run
  /// once instead of M times, so per-agent all-DC scoring drops from
  /// O(deg * M^2) to O(deg * M + M^2). Const and thread-safe with a
  /// per-thread scratch, like EvaluateMove. `out` must hold num_dcs()
  /// elements. Derived-placement mode only.
  void EvaluateMoveAll(VertexId v, EvalScratch* scratch,
                       Objective* out) const;

  /// Batched what-if for explicit placement: fills out[r] with the
  /// objective after hypothetically placing edge e at r, for every r.
  /// out[edge_dc(e)] is the current objective when e is placed.
  void EvaluatePlaceEdgeAll(EdgeId e, EvalScratch* scratch,
                            Objective* out) const;

  // ---- Objectives and metrics ----------------------------------------

  /// The objective of the live state. Maintained eagerly on every
  /// mutation, so this is a constant-time read.
  Objective CurrentObjective() const { return cached_objective_; }

  /// Prices a set of per-DC byte aggregates (plus an Eq. 4 move cost)
  /// under this state's topology and workload — the single compiled
  /// finalize shared by every evaluation path. Exposed so the
  /// differential oracle's legacy reference evaluator prices its
  /// independently maintained aggregates through the same code,
  /// making bit-exact comparison sound. Arrays hold num_dcs() entries.
  Objective ObjectiveFromAggregates(const double* gather_up,
                                    const double* gather_down,
                                    const double* apply_up,
                                    const double* apply_down,
                                    double mv_cost) const;

  /// Inter-DC transfer time of one full-activity iteration (Eq. 1).
  double TransferSecondsPerIteration() const;
  /// Runtime upload cost of one full-activity iteration (Eq. 5).
  double RuntimeCostPerIteration() const;
  /// Input data movement cost (Eq. 4).
  double MoveCost() const { return move_cost_; }
  /// Bytes crossing DC uplinks in one full-activity iteration.
  double WanBytesPerIteration() const;
  /// Average number of replicas (master + mirrors) per vertex; O(1)
  /// via the incrementally maintained replica count.
  double ReplicationFactor() const;

  // ---- Accessors -------------------------------------------------------

  const Graph& graph() const { return *graph_; }
  const Topology& topology() const { return *topology_; }
  const PartitionConfig& config() const { return config_; }
  /// True when edge placement follows the masters (ResetDerived), false
  /// for an explicit placement (ResetWithPlacement / ResetUnplaced).
  bool derived_placement() const { return derived_placement_; }
  int num_dcs() const { return topology_->num_dcs(); }

  DcId master(VertexId v) const { return masters_[v]; }
  const std::vector<DcId>& masters() const { return masters_; }
  DcId edge_dc(EdgeId e) const { return edge_dc_[e]; }
  bool is_high_degree(VertexId v) const { return is_high_[v] != 0; }

  /// Replica DC bitmask of v, including the master bit.
  uint64_t ReplicaMask(VertexId v) const;
  /// Number of mirror DCs (replicas excluding the master).
  int MirrorCount(VertexId v) const;
  /// Mirror DCs of v (replicas excluding the master), as a bitmask.
  uint64_t MirrorMask(VertexId v) const;
  /// Mirror DCs of v holding at least one in-edge of v: the DCs that
  /// upload gather messages for a high-degree v.
  uint64_t GatherMirrorMask(VertexId v) const;

  uint64_t MasterCount(DcId r) const { return masters_in_dc_[r]; }
  uint64_t EdgeCount(DcId r) const { return edges_in_dc_[r]; }

  /// Dense vertex->replica bitset of DC r: bit v is set iff r holds a
  /// replica (master or mirror) of v. Maintained incrementally.
  const DenseBitset& ReplicaBitset(DcId r) const { return replica_bits_[r]; }

  /// Number of vertices with a replica in DC r (per-DC load view).
  uint64_t ReplicaCountInDc(DcId r) const {
    return replica_bits_[r].Popcount();
  }

  /// Total replicas across all vertices and DCs (sum of per-DC loads).
  uint64_t TotalReplicaCount() const { return replica_count_; }

  /// Calls fn(v) for every vertex holding a replica in any DC of
  /// `dc_mask`, in increasing vertex order. Word-parallel: OR of the
  /// per-DC dense bitsets, 64 vertices per iteration, so a scan over a
  /// few changed DCs is O(M_changed * |V| / 64) instead of O(|V| * M).
  template <typename Fn>
  void ForEachVertexWithReplicaIn(uint64_t dc_mask, Fn&& fn) const {
    if (num_dcs_ < 64) dc_mask &= (uint64_t{1} << num_dcs_) - 1;
    if (dc_mask == 0 || replica_bits_.empty()) return;
    const size_t num_words = replica_bits_[0].num_words();
    for (size_t w = 0; w < num_words; ++w) {
      uint64_t acc = 0;
      uint64_t dcs = dc_mask;
      while (dcs != 0) {
        const int r = std::countr_zero(dcs);
        dcs &= dcs - 1;
        acc |= replica_bits_[r].words()[w];
      }
      while (acc != 0) {
        const int b = std::countr_zero(acc);
        acc &= acc - 1;
        fn(static_cast<VertexId>((w << 6) + static_cast<size_t>(b)));
      }
    }
  }

  /// Number of vertices classified high-degree.
  uint64_t NumHighDegree() const;

  /// Apply-stage message size a_v at full activity (bytes). Grows with
  /// out-degree for workloads with degree-proportional messages.
  double ApplyBytes(VertexId v) const { return apply_bytes_[v]; }

  /// Recomputes every counter/aggregate from scratch and compares with
  /// the incrementally maintained values; false + log on mismatch.
  /// Intended for tests (O(|E| + |V| M)).
  bool CheckInvariants() const;

  /// In-degree threshold that classifies roughly `fraction` of vertices
  /// (the highest in-degree ones) as high-degree. Helper for scaled-down
  /// datasets where the paper's theta=100 would select nothing.
  static uint32_t AutoTheta(const Graph& graph, double fraction = 0.02);

 private:
  // Derived placement rule: which DC does edge e live in, given masters.
  DcId DerivedEdgeDc(EdgeId e) const;

  // Classifies every vertex (high-degree or not) and sizes its apply
  // and gather messages from the graph's degrees and the config.
  void DeriveVertexClasses();

  // Derives every edge's DC from masters_ and rebuilds all counters
  // and aggregates from that placement; sets untouched_since_derive_.
  void Derive();

  // Whether a master move of v re-places edge e (see MoveMaster).
  // e must be incident to v.
  bool EdgeFollowsMaster(EdgeId e, VertexId v) const;

  // Adds (sign=+1) or removes (sign=-1) the traffic contribution of w,
  // described by (edge_mask, in_mask, master), into the four per-DC
  // aggregate arrays.
  void AccumulateContribution(VertexId w, uint64_t edge_mask,
                              uint64_t in_mask, DcId master_dc, double sign,
                              double* gather_up, double* gather_down,
                              double* apply_up, double* apply_down) const;

  // Collects the per-vertex count deltas and moved edges for a master
  // move of v from `from` to `to` into `scratch`. The moved-edge list
  // is only recorded when requested: CommitDeltas needs it, the const
  // evaluation paths do not.
  void CollectMasterMoveDeltas(VertexId v, DcId from, DcId to,
                               EvalScratch* scratch,
                               bool record_moved_edges) const;

  // Collects deltas for placing edge e at `to` (from its current DC).
  void CollectEdgePlaceDeltas(EdgeId e, DcId to, EvalScratch* scratch) const;

  // Applies collected deltas to the live state; `new_master_v` is the
  // new master for `move_vertex` (or kNoDc for edge placements).
  void CommitDeltas(EvalScratch* scratch, VertexId move_vertex,
                    DcId new_master_v);

  // Evaluates the objective under the deltas in `scratch` plus an
  // optional master change, without mutating the partition state
  // (scratch's working aggregates are used as memory).
  Objective EvaluateDeltas(EvalScratch* scratch, VertexId move_vertex,
                           DcId new_master_v) const;

  // Evaluates the objective of the deltas in `scratch` for every
  // destination DC at once (see EvaluateMoveAll). `move_vertex` is the
  // vertex whose master follows the destination, or VertexId(-1) for
  // edge placements. Destinations equal to scratch->from_dc_ are
  // filled with the cached current objective.
  void EvaluateDeltasAll(EvalScratch* scratch, VertexId move_vertex,
                         Objective* out) const;

  // Eq. 4 cost as the DC-ordered sum of the per-home-DC terms, with
  // DC `r`'s term replaced by `term_r` (r = kNoDc sums the live terms).
  // Every path that prices the move cost sums through here, so the
  // cost is a function of the masters alone, not of the move order.
  double SumMoveTerms(DcId r, double term_r) const;

  // Eq. 4 cost after moving v's master away from (away = true) or back
  // to its home DC. Bit-equal to move_cost_ when v is already there.
  double MoveCostIfAway(VertexId v, bool away) const;

  void RebuildFromPlacement();

  // Refreshes the cached per-DC link-rate reciprocals, per-byte prices
  // and total activity from the current topology/workload.
  void RefreshPricing();

  // Recomputes cached_objective_ from the live aggregates.
  void RefreshCachedObjective();

  // Rebuilds the per-DC dense replica bitsets and the replica count
  // from edge_mask_/masters_ (O(|V|) + bitset clears).
  void RebuildReplicaBits();

  // Applies a replica-mask change of vertex v to the per-DC bitsets
  // and the replica count.
  void UpdateReplicaBits(VertexId v, uint64_t old_replica,
                         uint64_t new_replica);

  uint32_t CntAt(VertexId v, DcId r) const {
    return cnt_[static_cast<size_t>(v) * num_dcs_ + r];
  }
  uint32_t InCntAt(VertexId v, DcId r) const {
    return in_cnt_[static_cast<size_t>(v) * num_dcs_ + r];
  }

  const Graph* graph_;
  const Topology* topology_;
  const std::vector<DcId>* initial_locations_;
  const std::vector<double>* input_sizes_;
  PartitionConfig config_;
  int num_dcs_ = 0;

  // Derived-vs-explicit placement mode (see class comment).
  bool derived_placement_ = true;
  // True while the state is exactly what Derive() produced from
  // masters_: set by Derive, cleared by every mutator (see
  // ResetDerived).
  bool untouched_since_derive_ = false;

  // Per-vertex classification and message sizes.
  std::vector<uint8_t> is_high_;
  std::vector<double> apply_bytes_;   // a_v at full activity
  std::vector<double> gather_bytes_;  // g_v^r at full activity

  // Mutable partitioning state.
  std::vector<DcId> masters_;
  std::vector<DcId> edge_dc_;        // kNoDc when unplaced
  std::vector<uint32_t> cnt_;        // |V| x M incident-edge counts
  std::vector<uint32_t> in_cnt_;     // |V| x M in-edge counts
  std::vector<uint64_t> edge_mask_;  // DCs with >= 1 incident edge
  std::vector<uint64_t> in_mask_;    // DCs with >= 1 in-edge

  // The per-vertex fields the evaluation inner loops read for every
  // affected neighbor, packed into one 24-byte record. Those loops are
  // cache-miss-bound on scattered per-neighbor loads, so mirroring
  // (edge_mask_, apply_bytes_, masters_, is_high_) here turns four
  // misses per cold neighbor into one. Synced wherever the canonical
  // arrays change; CheckInvariants verifies the mirror.
  struct VertexMeta {
    uint64_t edge_mask = 0;
    double apply_bytes = 0;
    DcId master = 0;
    uint8_t is_high = 0;
    friend bool operator==(const VertexMeta&, const VertexMeta&) = default;
  };
  std::vector<VertexMeta> meta_;

  // Live per-DC byte aggregates (bytes per full-activity iteration) in
  // one flat structure-of-arrays block:
  // [gather_up | gather_down | apply_up | apply_down], each num_dcs_
  // wide. Kept contiguous so what-if evaluation snapshots them with one
  // vectorizable copy.
  std::vector<double> agg_;

  // Eq. 4 input movement, kept per home DC: the input bytes of the
  // vertices mastered away from that home, and their priced term.
  // Input sizes are integer or dyadic, so the byte sums are exact and
  // independent of the order in which the moves happened.
  std::vector<double> moved_bytes_;
  std::vector<double> moved_term_;  // UploadCost(r, moved_bytes_[r])
  double move_cost_ = 0;            // SumMoveTerms(kNoDc, 0), dollars
  std::vector<uint64_t> masters_in_dc_;
  std::vector<uint64_t> edges_in_dc_;

  // One dense vertex->replica bitset per DC plus the total replica
  // count, maintained incrementally by CommitDeltas.
  std::vector<DenseBitset> replica_bits_;
  uint64_t replica_count_ = 0;

  // Cached pricing terms (RefreshPricing): multiplying by a cached
  // reciprocal replaces the per-DC divisions in the finalize hot loop.
  std::vector<double> inv_up_;          // 1 / LinkBytesPerSec(uplink)
  std::vector<double> inv_down_;        // 1 / LinkBytesPerSec(downlink)
  std::vector<double> price_per_byte_;  // Price(r) / 1e9
  double total_activity_ = 0;

  // Eagerly maintained CurrentObjective() (see RefreshCachedObjective).
  Objective cached_objective_;

  // Scratch reused by the mutating paths.
  EvalScratch mutation_scratch_;
};

}  // namespace rlcut

#endif  // RLCUT_PARTITION_PARTITION_STATE_H_
