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
  friend class MoveArena;

  // One affected vertex of a move: its incident- and in-edge count
  // deltas at the move's source DC (from) and destination DC (to).
  struct AffectedDelta {
    VertexId v;
    int32_t cnt_from = 0;
    int32_t cnt_to = 0;
    int32_t in_from = 0;
    int32_t in_to = 0;
  };

  void EnsureSized(VertexId num_vertices, int num_dcs);

  // The collection of the pending evaluation or mutation.
  std::vector<AffectedDelta> affected_;
  // Epoch-tagged vertex -> collection index map for O(1) dedup.
  std::vector<uint32_t> slot_;
  std::vector<uint32_t> slot_epoch_;
  uint32_t epoch_ = 0;
  // Per-destination results of a single-destination fold.
  std::vector<Objective> out_;
  // Flat per-DC aggregate buffer in the live-state layout
  // [gather_up | gather_down | apply_up | apply_down], each num_dcs
  // wide: the destination-independent base shared by every destination
  // of one fold.
  std::vector<double> base_;
  // Per-destination correction lists of the fold. An
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

/// Flat storage for master-move collections that a caller keeps (see
/// EvaluateMoveAll): every kept collection is appended, so a warm arena
/// keeps a whole batch of them without allocating. Clear() forgets them
/// all and invalidates every KeptMove that names this arena.
class MoveArena {
 public:
  void Clear() { deltas_.clear(); }

 private:
  friend class PartitionState;
  std::vector<EvalScratch::AffectedDelta> deltas_;
};

/// A master move of vertex v, collected once into a MoveArena. The
/// collection (the affected vertices and their count deltas) depends on
/// the graph, the degree classes and v's master, but on neither the
/// destination nor any live count, so moves of other vertices leave it
/// valid: it can be priced against any later state and committed there,
/// until v itself moves or its arena is cleared.
struct KeptMove {
  const MoveArena* arena = nullptr;
  VertexId v = 0;
  DcId from = kNoDc;   // v's master when collected
  uint32_t begin = 0;  // [begin, end) of arena's deltas
  uint32_t end = 0;
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
/// multi-agent score computation against a shared state. Every what-if
/// evaluation, single or batched, runs one fold, so the two agree bit
/// for bit on any instance; it and the live and cold paths price through
/// the same lane finalize, which is what keeps the differential
/// oracle's bit-exactness contract on dyadic instances.
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

  /// MoveMaster(move.v, to) from a kept collection (see KeptMove),
  /// skipping the collection MoveMaster would make; the resulting state
  /// is identical. `move.v` must still be at move.from.
  void CommitKeptMove(const KeptMove& move, DcId to);

  /// Places (or re-places) one edge; explicit-placement mode only.
  void PlaceEdge(EdgeId e, DcId to);

  /// Changes v's master without touching edge placement;
  /// explicit-placement mode only.
  void SetMaster(VertexId v, DcId to);

  // ---- What-if evaluation (const, thread-safe) ------------------------
  //
  // Every evaluator below is one fold (FoldDeltas) over one collection:
  // the single-destination evaluators run the all-destination fold
  // restricted to their destination, so EvaluateMove(v, to) equals
  // EvaluateMoveAll(v)[to] bit for bit on every instance.

  /// Objective after hypothetically moving v's master to `to`
  /// (derived-placement mode). Does not modify the state.
  Objective EvaluateMove(VertexId v, DcId to, EvalScratch* scratch) const;

  /// Objective after hypothetically placing edge e at `to`
  /// (explicit-placement mode).
  Objective EvaluatePlaceEdge(EdgeId e, DcId to, EvalScratch* scratch) const;

  /// Batched what-if: fills out[r] with the objective after
  /// hypothetically moving v's master to r, for every r in [0, M).
  /// out[master(v)] is the current objective. The O(deg) affected-set
  /// collection and the destination-independent "remove old
  /// contribution" half run once instead of M times, so per-agent
  /// all-DC scoring costs O(deg * M + M^2) instead of O(deg * M^2).
  /// Const and thread-safe with a per-thread scratch, like EvaluateMove.
  /// `out` must hold num_dcs() elements. Derived-placement mode only.
  ///
  /// With `keep`, the collection is appended to that arena instead of
  /// the scratch, and the returned KeptMove names it for
  /// EvaluateKeptMove and CommitKeptMove; without, the return value
  /// names nothing.
  KeptMove EvaluateMoveAll(VertexId v, EvalScratch* scratch, Objective* out,
                           MoveArena* keep = nullptr) const;

  /// EvaluateMove(move.v, to) from a kept collection, without collecting
  /// again: the same fold, against the live state. `move.v` must still
  /// be at move.from. When `prefetch` names the move the caller prices
  /// next, its rows are prefetched while this one folds.
  Objective EvaluateKeptMove(const KeptMove& move, DcId to,
                             EvalScratch* scratch,
                             const KeptMove* prefetch = nullptr) const;

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

  using AffectedDelta = EvalScratch::AffectedDelta;

  // Appends to `out` the collection of a master move of v away from its
  // current master: every affected vertex once (deduplicated through
  // scratch's epoch map), with its count deltas. The deltas do not
  // depend on the destination.
  void CollectMasterMove(VertexId v, EvalScratch* scratch,
                         std::vector<AffectedDelta>* out) const;

  // Collects into scratch->affected_ the deltas of placing edge e
  // anywhere but its current DC.
  void CollectEdgePlace(EdgeId e, EvalScratch* scratch) const;

  // The one fold: writes out[to], for every destination `to` in the DC
  // mask `dests`, the objective after moving the collection
  // [deltas, deltas + n) from `from` to `to`. `move_vertex` is the vertex
  // whose master follows the destination, or VertexId(-1) for an edge
  // placement. A destination equal to `from` gets the current objective.
  // Rows of `prefetch` (n_prefetch deltas) are prefetched along the way.
  // `scratch` must be sized for this state (EnsureSized).
  void FoldDeltas(const AffectedDelta* deltas, size_t n, DcId from,
                  VertexId move_vertex, uint64_t dests, EvalScratch* scratch,
                  Objective* out, const AffectedDelta* prefetch = nullptr,
                  size_t n_prefetch = 0) const;

  // Applies a collection's count deltas for a move from `from` to `to`
  // to the live state, with `move_vertex`'s master following `to`
  // (VertexId(-1) for an edge placement). Edge DCs are the caller's.
  void CommitDeltas(const AffectedDelta* deltas, size_t n, DcId from, DcId to,
                    VertexId move_vertex);

  // CommitDeltas for a master move of v, plus the relocation of the
  // edges that follow v's master.
  void CommitMasterMove(VertexId v, const AffectedDelta* deltas, size_t n,
                        DcId to);

  // Moves edge e to DC `to` in the per-DC edge counts.
  void RelocateEdge(EdgeId e, DcId to);

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
