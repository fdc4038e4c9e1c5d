#include "partition/partition_state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace rlcut {
namespace {

inline uint64_t Bit(DcId r) { return 1ull << r; }

inline int PopCount(uint64_t x) { return std::popcount(x); }

// Every DC of an M-DC topology, as a mask.
inline uint64_t AllDcs(int num_dcs) {
  return num_dcs < 64 ? Bit(num_dcs) - 1 : ~uint64_t{0};
}

// Iterates the set bits of `mask`, calling fn(DcId).
template <typename Fn>
inline void ForEachDc(uint64_t mask, Fn&& fn) {
  while (mask != 0) {
    const int r = std::countr_zero(mask);
    fn(static_cast<DcId>(r));
    mask &= mask - 1;
  }
}

// One DC's lane of the objective finalize: its stage times g/a (Eq. 2-3
// link bottlenecks via cached reciprocals), their sum s for the smooth
// surrogate and its upload dollars c (Eq. 5). Lanes are independent;
// the order-sensitive reductions across DCs run once, in DC order, in
// AccumulateLanes.
inline void FinalizeLane(double gu, double gd, double au, double ad,
                         double iu, double id, double pp, double* g,
                         double* a, double* s, double* c) {
  *g = std::max(gd * id, gu * iu);
  *a = std::max(au * iu, ad * id);
  *s = *g + *a;
  *c = pp * (gu + au);
}

struct FinalizeAccum {
  double t_gather = 0;
  double t_apply = 0;
  double smooth = 0;
  double cost = 0;
};

// The order-sensitive reductions of the finalize, in DC order.
inline FinalizeAccum AccumulateLanes(const double* g, const double* a,
                                     const double* s, const double* c,
                                     int m) {
  FinalizeAccum acc;
  for (int r = 0; r < m; ++r) {
    acc.t_gather = std::max(acc.t_gather, g[r]);
    acc.t_apply = std::max(acc.t_apply, a[r]);
    acc.smooth += s[r];
    acc.cost += c[r];
  }
  return acc;
}

inline void FinalizeLanes(const double* gu, const double* gd,
                          const double* au, const double* ad,
                          const double* iu, const double* id,
                          const double* pp, int m, double* g, double* a,
                          double* s, double* c) {
  for (int r = 0; r < m; ++r) {
    FinalizeLane(gu[r], gd[r], au[r], ad[r], iu[r], id[r], pp[r], &g[r],
                 &a[r], &s[r], &c[r]);
  }
}

}  // namespace

void EvalScratch::EnsureSized(VertexId num_vertices, int num_dcs) {
  if (slot_epoch_.size() < num_vertices) {
    slot_.resize(num_vertices, 0);
    slot_epoch_.resize(num_vertices, 0);
  }
  const size_t agg_len = static_cast<size_t>(num_dcs) * 4;
  if (base_.size() < agg_len) base_.resize(agg_len);
  if (corr_head_.size() < static_cast<size_t>(num_dcs)) {
    corr_head_.resize(num_dcs, -1);
    out_.resize(num_dcs);
  }
}

PartitionState::PartitionState(const Graph* graph, const Topology* topology,
                               const std::vector<DcId>* initial_locations,
                               const std::vector<double>* input_sizes,
                               PartitionConfig config)
    : graph_(graph),
      topology_(topology),
      initial_locations_(initial_locations),
      input_sizes_(input_sizes),
      config_(std::move(config)) {
  RLCUT_CHECK(graph_ != nullptr);
  RLCUT_CHECK(topology_ != nullptr);
  RLCUT_CHECK(initial_locations_ != nullptr);
  RLCUT_CHECK(input_sizes_ != nullptr);
  RLCUT_CHECK(topology_->Validate().ok());
  num_dcs_ = topology_->num_dcs();
  const VertexId n = graph_->num_vertices();
  RLCUT_CHECK_EQ(initial_locations_->size(), n);
  RLCUT_CHECK_EQ(input_sizes_->size(), n);

  DeriveVertexClasses();
  masters_.assign(n, 0);
  edge_dc_.assign(graph_->num_edges(), kNoDc);
  cnt_.assign(static_cast<size_t>(n) * num_dcs_, 0);
  in_cnt_.assign(static_cast<size_t>(n) * num_dcs_, 0);
  edge_mask_.assign(n, 0);
  in_mask_.assign(n, 0);
  agg_.assign(static_cast<size_t>(num_dcs_) * 4, 0.0);
  moved_bytes_.assign(num_dcs_, 0.0);
  moved_term_.assign(num_dcs_, 0.0);
  masters_in_dc_.assign(num_dcs_, 0);
  edges_in_dc_.assign(num_dcs_, 0);
  replica_bits_.resize(num_dcs_);
  for (DcId r = 0; r < num_dcs_; ++r) replica_bits_[r].Resize(n);
  meta_.resize(n);
  RefreshPricing();

  // Start from the natural partitioning: masters at initial locations.
  if (config_.model == ComputeModel::kVertexCut) {
    ResetUnplaced(*initial_locations_);
  } else {
    ResetDerived(*initial_locations_);
  }
}

void PartitionState::DeriveVertexClasses() {
  const VertexId n = graph_->num_vertices();
  is_high_.resize(n);
  apply_bytes_.resize(n);
  gather_bytes_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    switch (config_.model) {
      case ComputeModel::kHybridCut:
        is_high_[v] = graph_->InDegree(v) >= config_.theta ? 1 : 0;
        break;
      case ComputeModel::kVertexCut:
        is_high_[v] = 1;
        break;
      case ComputeModel::kEdgeCut:
        is_high_[v] = 0;
        break;
    }
    apply_bytes_[v] = config_.workload.apply_base_bytes +
                      config_.workload.apply_bytes_per_out_edge *
                          graph_->OutDegree(v);
    gather_bytes_[v] = config_.workload.gather_base_bytes;
  }
}

void PartitionState::RefreshGraph() {
  RLCUT_CHECK_EQ(graph_->num_vertices(), masters_.size());
  DeriveVertexClasses();
  edge_dc_.resize(graph_->num_edges());
  RefreshPricing();
  // Never skipped: every graph- and size-dependent field is stale.
  if (derived_placement_) {
    Derive();
    return;
  }
  // Edge ids do not survive a rebuild: an explicit placement restarts
  // unplaced (the caller re-places what it carried).
  std::fill(edge_dc_.begin(), edge_dc_.end(), kNoDc);
  RebuildFromPlacement();
}

DcId PartitionState::DerivedEdgeDc(EdgeId e) const {
  const VertexId src = graph_->EdgeSource(e);
  const VertexId dst = graph_->EdgeTarget(e);
  // Hybrid-cut rules (Sec. IV-B): in-edges of a low-degree vertex follow
  // that vertex's master; in-edges of a high-degree vertex follow the
  // *source* master. kEdgeCut/kVertexCut degenerate via is_high_.
  return is_high_[dst] ? masters_[src] : masters_[dst];
}

bool PartitionState::EdgeFollowsMaster(EdgeId e, VertexId v) const {
  const VertexId src = graph_->EdgeSource(e);
  const VertexId dst = graph_->EdgeTarget(e);
  return (dst == v && !is_high_[dst]) || (src == v && is_high_[dst]);
}

void PartitionState::ResetDerived(const std::vector<DcId>& masters) {
  RLCUT_CHECK_EQ(masters.size(), graph_->num_vertices());
  // Already derived from exactly these masters (see the header).
  if (untouched_since_derive_ && masters == masters_) return;
  masters_ = masters;
  Derive();
}

void PartitionState::Derive() {
  derived_placement_ = true;
  for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
    edge_dc_[e] = DerivedEdgeDc(e);
  }
  RebuildFromPlacement();
  untouched_since_derive_ = true;
}

void PartitionState::ResetWithPlacement(const std::vector<DcId>& masters,
                                        const std::vector<DcId>& edge_dcs) {
  RLCUT_CHECK_EQ(masters.size(), graph_->num_vertices());
  RLCUT_CHECK_EQ(edge_dcs.size(), graph_->num_edges());
  derived_placement_ = false;
  untouched_since_derive_ = false;
  masters_ = masters;
  edge_dc_ = edge_dcs;
  RebuildFromPlacement();
}

void PartitionState::ResetUnplaced(const std::vector<DcId>& masters) {
  RLCUT_CHECK_EQ(masters.size(), graph_->num_vertices());
  derived_placement_ = false;
  untouched_since_derive_ = false;
  masters_ = masters;
  std::fill(edge_dc_.begin(), edge_dc_.end(), kNoDc);
  RebuildFromPlacement();
}

void PartitionState::UpdateTopology(const Topology* topology) {
  RLCUT_CHECK(topology != nullptr);
  RLCUT_CHECK_EQ(topology->num_dcs(), num_dcs_);
  untouched_since_derive_ = false;
  topology_ = topology;
  RefreshPricing();
  // Placement, counters and byte aggregates do not depend on the
  // topology; only the input-movement cost (Eq. 4) bakes in upload
  // prices, so its per-DC terms are re-priced from the moved bytes.
  for (DcId r = 0; r < num_dcs_; ++r) {
    moved_term_[r] = topology_->UploadCost(r, moved_bytes_[r]);
  }
  move_cost_ = SumMoveTerms(kNoDc, 0);
  RefreshCachedObjective();
}

void PartitionState::RefreshPricing() {
  inv_up_.resize(num_dcs_);
  inv_down_.resize(num_dcs_);
  price_per_byte_.resize(num_dcs_);
  for (DcId r = 0; r < num_dcs_; ++r) {
    inv_up_[r] = 1.0 / LinkBytesPerSec(topology_->Uplink(r));
    inv_down_[r] = 1.0 / LinkBytesPerSec(topology_->Downlink(r));
    price_per_byte_[r] = topology_->Price(r) / 1e9;
  }
  total_activity_ = config_.workload.TotalActivity();
}

void PartitionState::RefreshCachedObjective() {
  const double* gu = agg_.data();
  cached_objective_ = ObjectiveFromAggregates(
      gu, gu + num_dcs_, gu + 2 * num_dcs_, gu + 3 * num_dcs_, move_cost_);
}

void PartitionState::RebuildReplicaBits() {
  replica_count_ = 0;
  for (DcId r = 0; r < num_dcs_; ++r) replica_bits_[r].ClearAll();
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    const uint64_t rep = edge_mask_[v] | Bit(masters_[v]);
    replica_count_ += static_cast<uint64_t>(PopCount(rep));
    ForEachDc(rep, [&](DcId r) { replica_bits_[r].Set(v); });
  }
}

void PartitionState::UpdateReplicaBits(VertexId v, uint64_t old_replica,
                                       uint64_t new_replica) {
  uint64_t diff = old_replica ^ new_replica;
  while (diff != 0) {
    const int r = std::countr_zero(diff);
    diff &= diff - 1;
    if ((new_replica >> r) & 1u) {
      replica_bits_[r].Set(v);
      ++replica_count_;
    } else {
      replica_bits_[r].Clear(v);
      --replica_count_;
    }
  }
}

void PartitionState::RebuildFromPlacement() {
  const VertexId n = graph_->num_vertices();
  std::fill(cnt_.begin(), cnt_.end(), 0u);
  std::fill(in_cnt_.begin(), in_cnt_.end(), 0u);
  std::fill(edges_in_dc_.begin(), edges_in_dc_.end(), 0u);
  for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
    const DcId dc = edge_dc_[e];
    if (dc == kNoDc) continue;
    const VertexId src = graph_->EdgeSource(e);
    const VertexId dst = graph_->EdgeTarget(e);
    ++cnt_[static_cast<size_t>(src) * num_dcs_ + dc];
    ++cnt_[static_cast<size_t>(dst) * num_dcs_ + dc];
    ++in_cnt_[static_cast<size_t>(dst) * num_dcs_ + dc];
    ++edges_in_dc_[dc];
  }
  std::fill(agg_.begin(), agg_.end(), 0.0);
  std::fill(masters_in_dc_.begin(), masters_in_dc_.end(), 0u);
  double* gather_up = agg_.data();
  double* gather_down = gather_up + num_dcs_;
  double* apply_up = gather_up + 2 * num_dcs_;
  double* apply_down = gather_up + 3 * num_dcs_;
  std::fill(moved_bytes_.begin(), moved_bytes_.end(), 0.0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t em = 0;
    uint64_t im = 0;
    for (DcId r = 0; r < num_dcs_; ++r) {
      if (CntAt(v, r) > 0) em |= Bit(r);
      if (InCntAt(v, r) > 0) im |= Bit(r);
    }
    edge_mask_[v] = em;
    in_mask_[v] = im;
    meta_[v] = {em, apply_bytes_[v], masters_[v], is_high_[v]};
    AccumulateContribution(v, em, im, masters_[v], +1.0, gather_up,
                           gather_down, apply_up, apply_down);
    ++masters_in_dc_[masters_[v]];
    const DcId home = (*initial_locations_)[v];
    if (masters_[v] != home) moved_bytes_[home] += (*input_sizes_)[v];
  }
  for (DcId r = 0; r < num_dcs_; ++r) {
    moved_term_[r] = topology_->UploadCost(r, moved_bytes_[r]);
  }
  move_cost_ = SumMoveTerms(kNoDc, 0);
  RebuildReplicaBits();
  RefreshCachedObjective();
}

double PartitionState::SumMoveTerms(DcId r, double term_r) const {
  double sum = 0;
  for (DcId q = 0; q < num_dcs_; ++q) {
    sum += q == r ? term_r : moved_term_[q];
  }
  return sum;
}

double PartitionState::MoveCostIfAway(VertexId v, bool away) const {
  const DcId home = (*initial_locations_)[v];
  if ((masters_[v] != home) == away) return move_cost_;
  const double size = (*input_sizes_)[v];
  const double bytes = moved_bytes_[home] + (away ? size : -size);
  return SumMoveTerms(home, topology_->UploadCost(home, bytes));
}

void PartitionState::AccumulateContribution(
    VertexId w, uint64_t edge_mask, uint64_t in_mask, DcId master_dc,
    double sign, double* gather_up, double* gather_down, double* apply_up,
    double* apply_down) const {
  const uint64_t master_bit = Bit(master_dc);
  const uint64_t mirrors = edge_mask & ~master_bit;
  const int num_mirrors = PopCount(mirrors);
  if (num_mirrors > 0) {
    // Apply stage (Eq. 3): master uploads a_v to each mirror; every
    // mirror downloads a_v. Low-degree sync is unified into apply.
    const double a = sign * apply_bytes_[w];
    apply_up[master_dc] += a * num_mirrors;
    ForEachDc(mirrors, [&](DcId r) { apply_down[r] += a; });
  }
  if (is_high_[w]) {
    // Gather stage (Eq. 2): mirrors that hold in-edges of w upload one
    // aggregated message; the master downloads all of them.
    const uint64_t gather_mirrors = in_mask & ~master_bit;
    const int num_gather = PopCount(gather_mirrors);
    if (num_gather > 0) {
      const double g = sign * gather_bytes_[w];
      gather_down[master_dc] += g * num_gather;
      ForEachDc(gather_mirrors, [&](DcId r) { gather_up[r] += g; });
    }
  }
}

void PartitionState::CollectMasterMove(VertexId v, EvalScratch* scratch,
                                       std::vector<AffectedDelta>* out) const {
  EvalScratch& s = *scratch;
  s.EnsureSized(graph_->num_vertices(), num_dcs_);
  std::vector<AffectedDelta>& affected = *out;
  if (++s.epoch_ == 0) {
    std::fill(s.slot_epoch_.begin(), s.slot_epoch_.end(), 0u);
    s.epoch_ = 1;
  }
  // On first touch, prefetch the per-vertex state the fold reads next
  // (masks, counts, byte sizes): those loads are scattered and would
  // otherwise serialize on cache misses.
  auto touch = [&](VertexId w) -> AffectedDelta& {
    if (s.slot_epoch_[w] != s.epoch_) {
      s.slot_epoch_[w] = s.epoch_;
      s.slot_[w] = static_cast<uint32_t>(affected.size());
      affected.push_back({w, 0, 0, 0, 0});
      __builtin_prefetch(&meta_[w]);
      __builtin_prefetch(&cnt_[static_cast<size_t>(w) * num_dcs_]);
    }
    return affected[s.slot_[w]];
  };

  // v is always affected: its master bit moves even if no edge does.
  // Its (large) delta accumulates in locals and is written once.
  const size_t v_slot = affected.size();
  touch(v);
  int32_t v_cnt = 0;
  int32_t v_in = 0;

  if (!is_high_[v]) {
    // Low-cut: all in-edges of v follow v's master. The in-neighbor
    // span gives each source directly, avoiding an edge->endpoint
    // lookup per edge.
    auto in_neighbors = graph_->InNeighbors(v);
    for (size_t k = 0; k < in_neighbors.size(); ++k) {
      const VertexId u = in_neighbors[k];
      RLCUT_DCHECK(edge_dc_[graph_->InEdgeIds(v)[k]] == masters_[v]);
      if (u == v) {
        v_cnt += 2;  // self-loop: v is both endpoints
      } else {
        auto& du = touch(u);
        --du.cnt_from;
        ++du.cnt_to;
        ++v_cnt;
      }
      ++v_in;
    }
  }
  // High-cut: v's out-edges into high-degree targets follow v's master.
  // A self-loop with is_high_[v] lands here and was not handled by the
  // low-cut branch; with !is_high_[v] the low-cut branch already moved
  // it and the is_high_[u] condition is false.
  auto out_neighbors = graph_->OutNeighbors(v);
  for (size_t k = 0; k < out_neighbors.size(); ++k) {
    const VertexId u = out_neighbors[k];
    if (!is_high_[u]) continue;
    RLCUT_DCHECK(edge_dc_[graph_->OutEdgeBegin(v) + k] == masters_[v]);
    if (u == v) {
      v_cnt += 2;
      ++v_in;
    } else {
      auto& du = touch(u);
      --du.cnt_from;
      ++du.cnt_to;
      --du.in_from;
      ++du.in_to;
      ++v_cnt;
    }
  }

  auto& dv = affected[v_slot];
  dv.cnt_from -= v_cnt;
  dv.cnt_to += v_cnt;
  dv.in_from -= v_in;
  dv.in_to += v_in;
}

void PartitionState::CollectEdgePlace(EdgeId e, EvalScratch* scratch) const {
  EvalScratch& s = *scratch;
  s.EnsureSized(graph_->num_vertices(), num_dcs_);
  s.affected_.clear();
  if (++s.epoch_ == 0) {
    std::fill(s.slot_epoch_.begin(), s.slot_epoch_.end(), 0u);
    s.epoch_ = 1;
  }
  auto touch = [&s](VertexId w) -> AffectedDelta& {
    if (s.slot_epoch_[w] != s.epoch_) {
      s.slot_epoch_[w] = s.epoch_;
      s.slot_[w] = static_cast<uint32_t>(s.affected_.size());
      s.affected_.push_back({w, 0, 0, 0, 0});
    }
    return s.affected_[s.slot_[w]];
  };
  auto& ds = touch(graph_->EdgeSource(e));
  --ds.cnt_from;
  ++ds.cnt_to;
  auto& dd = touch(graph_->EdgeTarget(e));
  --dd.cnt_from;
  ++dd.cnt_to;
  --dd.in_from;
  ++dd.in_to;
}

void PartitionState::CommitDeltas(const AffectedDelta* deltas, size_t n,
                                  DcId from, DcId to, VertexId move_vertex) {
  untouched_since_derive_ = false;
  double* gather_up = agg_.data();
  double* gather_down = gather_up + num_dcs_;
  double* apply_up = gather_up + 2 * num_dcs_;
  double* apply_down = gather_up + 3 * num_dcs_;

  const bool has_mover = move_vertex != static_cast<VertexId>(-1);
  uint64_t mover_old_replica = 0;
  if (has_mover) {
    // The mover's master changes, so its whole contribution is removed
    // here (old masks/master) and re-added below (new masks/master).
    AccumulateContribution(move_vertex, edge_mask_[move_vertex],
                           in_mask_[move_vertex], masters_[move_vertex],
                           -1.0, gather_up, gather_down, apply_up,
                           apply_down);
    mover_old_replica = edge_mask_[move_vertex] | Bit(masters_[move_vertex]);
  }

  // Apply count deltas, refresh the from/to mask bits, and fold the net
  // aggregate change of every non-mover in O(1): its master is fixed,
  // so a mirror disappears at `from` exactly when the last incident
  // edge leaves, and appears at `to` exactly when the first arrives.
  for (size_t i = 0; i < n; ++i) {
    const AffectedDelta& d = deltas[i];
    const size_t row = static_cast<size_t>(d.v) * num_dcs_;
    const uint64_t em_old = edge_mask_[d.v];
    uint64_t em = em_old;
    if (from != kNoDc) {
      cnt_[row + from] = static_cast<uint32_t>(
          static_cast<int64_t>(cnt_[row + from]) + d.cnt_from);
      em = (em & ~Bit(from)) | (cnt_[row + from] > 0 ? Bit(from) : 0);
    }
    cnt_[row + to] = static_cast<uint32_t>(
        static_cast<int64_t>(cnt_[row + to]) + d.cnt_to);
    em = (em & ~Bit(to)) | (cnt_[row + to] > 0 ? Bit(to) : 0);
    edge_mask_[d.v] = em;
    meta_[d.v].edge_mask = em;
    // The in-side state is untouched for most affected vertices (only
    // edges whose target moved carry in-deltas); skipping it avoids
    // pulling the in_cnt_/in_mask_ cache lines.
    uint64_t im_old = 0;
    uint64_t im = 0;
    const bool in_changed = (d.in_from | d.in_to) != 0;
    if (in_changed || d.v == move_vertex) {
      im_old = in_mask_[d.v];
      im = im_old;
      if (from != kNoDc) {
        in_cnt_[row + from] = static_cast<uint32_t>(
            static_cast<int64_t>(in_cnt_[row + from]) + d.in_from);
        im = (im & ~Bit(from)) | (in_cnt_[row + from] > 0 ? Bit(from) : 0);
      }
      in_cnt_[row + to] = static_cast<uint32_t>(
          static_cast<int64_t>(in_cnt_[row + to]) + d.in_to);
      im = (im & ~Bit(to)) | (in_cnt_[row + to] > 0 ? Bit(to) : 0);
      in_mask_[d.v] = im;
    }

    if (d.v == move_vertex) continue;  // re-added with its new master below

    const DcId m = masters_[d.v];
    const double a = apply_bytes_[d.v];
    if (from != kNoDc && (em_old & Bit(from)) != 0 &&
        (em & Bit(from)) == 0 && from != m) {
      apply_up[m] -= a;
      apply_down[from] -= a;
    }
    if ((em_old & Bit(to)) == 0 && (em & Bit(to)) != 0 && to != m) {
      apply_up[m] += a;
      apply_down[to] += a;
    }
    if (is_high_[d.v] != 0 && in_changed) {
      const double g = gather_bytes_[d.v];
      if (from != kNoDc && (im_old & Bit(from)) != 0 &&
          (im & Bit(from)) == 0 && from != m) {
        gather_down[m] -= g;
        gather_up[from] -= g;
      }
      if ((im_old & Bit(to)) == 0 && (im & Bit(to)) != 0 && to != m) {
        gather_down[m] += g;
        gather_up[to] += g;
      }
    }
    if (((em_old ^ em) & ~Bit(m)) != 0) {
      UpdateReplicaBits(d.v, em_old | Bit(m), em | Bit(m));
    }
  }

  // Master change for the moved vertex, then re-add its contribution.
  if (has_mover) {
    const DcId old_master = masters_[move_vertex];
    const DcId home = (*initial_locations_)[move_vertex];
    const bool away = to != home;
    if ((old_master != home) != away) {
      // Same operations as MoveCostIfAway, so a committed move lands on
      // the bits its evaluation predicted.
      const double size = (*input_sizes_)[move_vertex];
      moved_bytes_[home] += away ? size : -size;
      moved_term_[home] = topology_->UploadCost(home, moved_bytes_[home]);
      move_cost_ = SumMoveTerms(home, moved_term_[home]);
    }
    --masters_in_dc_[old_master];
    ++masters_in_dc_[to];
    masters_[move_vertex] = to;
    meta_[move_vertex].master = to;
    AccumulateContribution(move_vertex, edge_mask_[move_vertex],
                           in_mask_[move_vertex], to, +1.0, gather_up,
                           gather_down, apply_up, apply_down);
    UpdateReplicaBits(move_vertex, mover_old_replica,
                      edge_mask_[move_vertex] | Bit(to));
  }

  RefreshCachedObjective();
}

void PartitionState::RelocateEdge(EdgeId e, DcId to) {
  if (edge_dc_[e] != kNoDc) --edges_in_dc_[edge_dc_[e]];
  edge_dc_[e] = to;
  ++edges_in_dc_[to];
}

void PartitionState::CommitMasterMove(VertexId v, const AffectedDelta* deltas,
                                      size_t n, DcId to) {
  CommitDeltas(deltas, n, masters_[v], to, v);
  // The edges that follow v's master, by the rules CollectMasterMove
  // collected them: v's in-edges when v is low-cut, and its out-edges
  // into high-degree targets.
  if (!is_high_[v]) {
    for (EdgeId e : graph_->InEdgeIds(v)) RelocateEdge(e, to);
  }
  const EdgeId out_begin = graph_->OutEdgeBegin(v);
  auto out_neighbors = graph_->OutNeighbors(v);
  for (size_t k = 0; k < out_neighbors.size(); ++k) {
    if (is_high_[out_neighbors[k]]) RelocateEdge(out_begin + k, to);
  }
}

void PartitionState::MoveMaster(VertexId v, DcId to) {
  RLCUT_CHECK(derived_placement_)
      << "MoveMaster requires derived placement (hybrid/edge-cut)";
  RLCUT_DCHECK(to >= 0 && to < num_dcs_);
  if (masters_[v] == to) return;
  EvalScratch& s = mutation_scratch_;
  s.affected_.clear();
  CollectMasterMove(v, &s, &s.affected_);
  CommitMasterMove(v, s.affected_.data(), s.affected_.size(), to);
}

void PartitionState::CommitKeptMove(const KeptMove& move, DcId to) {
  RLCUT_CHECK(derived_placement_)
      << "CommitKeptMove requires derived placement (hybrid/edge-cut)";
  RLCUT_CHECK_EQ(masters_[move.v], move.from)
      << "kept move of vertex " << move.v << " is stale: it moved since";
  RLCUT_DCHECK(to >= 0 && to < num_dcs_);
  if (move.from == to) return;
  CommitMasterMove(move.v, move.arena->deltas_.data() + move.begin,
                   move.end - move.begin, to);
}

void PartitionState::PlaceEdge(EdgeId e, DcId to) {
  RLCUT_CHECK(!derived_placement_)
      << "PlaceEdge requires explicit placement (vertex-cut)";
  RLCUT_DCHECK(to >= 0 && to < num_dcs_);
  if (edge_dc_[e] == to) return;
  EvalScratch& s = mutation_scratch_;
  CollectEdgePlace(e, &s);
  CommitDeltas(s.affected_.data(), s.affected_.size(), edge_dc_[e], to,
               static_cast<VertexId>(-1));
  RelocateEdge(e, to);
}

void PartitionState::SetMaster(VertexId v, DcId to) {
  RLCUT_CHECK(!derived_placement_)
      << "SetMaster requires explicit placement; use MoveMaster otherwise";
  RLCUT_DCHECK(to >= 0 && to < num_dcs_);
  const DcId from = masters_[v];
  if (from == to) return;
  const AffectedDelta only_v{v, 0, 0, 0, 0};
  CommitDeltas(&only_v, 1, from, to, v);
}

void PartitionState::FoldDeltas(const AffectedDelta* deltas, size_t n,
                                DcId from, VertexId move_vertex, uint64_t dests,
                                EvalScratch* scratch, Objective* out,
                                const AffectedDelta* prefetch,
                                size_t n_prefetch) const {
  EvalScratch& s = *scratch;
  // Prefetches the scattered rows the fold of another collection reads.
  auto prefetch_row = [&](VertexId w) {
    __builtin_prefetch(&meta_[w]);
    __builtin_prefetch(&cnt_[static_cast<size_t>(w) * num_dcs_]);
  };

  // Destination-independent base: live aggregates, minus the net
  // from-bit changes of the non-movers, minus the mover's old
  // contribution plus the destination-independent part of its new one.
  double* base_gu = s.base_.data();
  double* base_gd = base_gu + num_dcs_;
  double* base_au = base_gu + 2 * num_dcs_;
  double* base_ad = base_gu + 3 * num_dcs_;
  std::memcpy(base_gu, agg_.data(),
              sizeof(double) * static_cast<size_t>(num_dcs_) * 4);
  s.corr_pool_.clear();
  std::fill_n(s.corr_head_.begin(), num_dcs_, -1);
  bool has_mover = false;
  bool mover_high = false;
  uint64_t mover_mid_em = 0;
  uint64_t mover_mid_im = 0;
  int mover_em_pop = 0;
  int mover_im_pop = 0;
  double mover_a = 0;
  double mover_g = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i < n_prefetch) prefetch_row(prefetch[i].v);
    const AffectedDelta& d = deltas[i];
    const size_t row = static_cast<size_t>(d.v) * num_dcs_;
    const VertexMeta& mt = meta_[d.v];
    const uint64_t em_old = mt.edge_mask;
    uint64_t em = em_old;
    if (from != kNoDc) {
      const int64_t cf = static_cast<int64_t>(cnt_[row + from]) + d.cnt_from;
      em = (em & ~Bit(from)) | (cf > 0 ? Bit(from) : 0);
    }
    if (d.v == move_vertex) {
      // The in-side mid mask is only needed for the mover and for the
      // rare high-degree non-movers below: gating the in_mask_/in_cnt_
      // loads behind those cases keeps the common low-degree neighbor
      // to two scattered cache lines (edge mask/meta and count row).
      const uint64_t im_old = in_mask_[d.v];
      uint64_t im = im_old;
      if (from != kNoDc && d.in_from != 0) {
        const int64_t inf =
            static_cast<int64_t>(in_cnt_[row + from]) + d.in_from;
        im = (im & ~Bit(from)) | (inf > 0 ? Bit(from) : 0);
      }
      // The mover's master follows the destination. Remove its old
      // contribution, then fold the destination-independent part of the
      // new one: the master bit is excluded from the mirror set, so
      // every DC in the mid mask receives the mover's bytes regardless
      // of destination and only index `to` needs a per-destination fix.
      has_mover = true;
      mover_high = mt.is_high != 0;
      AccumulateContribution(d.v, em_old, im_old, mt.master, -1.0,
                             base_gu, base_gd, base_au, base_ad);
      mover_a = mt.apply_bytes;
      mover_g = gather_bytes_[d.v];
      mover_mid_em = em;
      mover_mid_im = im;
      mover_em_pop = PopCount(em);
      mover_im_pop = PopCount(im);
      ForEachDc(em, [&](DcId r) { base_ad[r] += mover_a; });
      if (mover_high) {
        ForEachDc(im, [&](DcId r) { base_gu[r] += mover_g; });
      }
      continue;
    }
    const DcId m = mt.master;
    const double a = mt.apply_bytes;
    // Net from-bit fix (removal only: moved edges leave the from-DC).
    if (from != kNoDc && (em_old & Bit(from)) != 0 &&
        (em & Bit(from)) == 0 && from != m) {
      base_au[m] -= a;
      base_ad[from] -= a;
    }
    // A destination gains a mirror of this vertex exactly when its bit
    // is off in the mid mask (the to-side count deltas are never
    // negative, so the to-bit recomputation reduces to an OR) and it is
    // not the vertex's own master. Neighbors typically already hold
    // replicas in most DCs, so few destinations fire; bucket one node per
    // firing destination so the per-destination pass walks only its own
    // short list instead of scanning every correction.
    if (d.cnt_to > 0) {
      ForEachDc(~(em | Bit(m)) & dests, [&](DcId r) {
        s.corr_pool_.push_back({m, a, 0.0, s.corr_head_[r]});
        s.corr_head_[r] = static_cast<int32_t>(s.corr_pool_.size()) - 1;
      });
    }
    if (mt.is_high != 0) {
      const uint64_t im_old = in_mask_[d.v];
      uint64_t im = im_old;
      if (from != kNoDc && d.in_from != 0) {
        const int64_t inf =
            static_cast<int64_t>(in_cnt_[row + from]) + d.in_from;
        im = (im & ~Bit(from)) | (inf > 0 ? Bit(from) : 0);
      }
      const double g = gather_bytes_[d.v];
      if (from != kNoDc && (im_old & Bit(from)) != 0 &&
          (im & Bit(from)) == 0 && from != m) {
        base_gd[m] -= g;
        base_gu[from] -= g;
      }
      if (d.in_to > 0) {
        ForEachDc(~(im | Bit(m)) & dests, [&](DcId r) {
          s.corr_pool_.push_back({m, 0.0, g, s.corr_head_[r]});
          s.corr_head_[r] = static_cast<int32_t>(s.corr_pool_.size()) - 1;
        });
      }
    }
  }
  for (size_t i = n; i < n_prefetch; ++i) prefetch_row(prefetch[i].v);

  // Finalize the base once into per-DC lanes. Per destination, only the
  // DCs whose aggregates change (the destination itself plus the
  // masters of correcting vertices) get their lanes recomputed; the
  // accumulation selects the dirty lane when present. All selections
  // and recomputations use the exact elementwise operations of
  // FinalizeLanes, so this stays bit-identical to finalizing a fully
  // patched aggregate copy.
  double base_g[kMaxDataCenters];
  double base_a[kMaxDataCenters];
  double base_s[kMaxDataCenters];
  double base_c[kMaxDataCenters];
  const double* iu = inv_up_.data();
  const double* id = inv_down_.data();
  const double* pp = price_per_byte_.data();
  FinalizeLanes(base_gu, base_gd, base_au, base_ad, iu, id, pp, num_dcs_,
                base_g, base_a, base_s, base_c);

  const EvalScratch::CorrNode* corr = s.corr_pool_.data();
  // Hoist the Eq. 4 cost: a destination either is the mover's home DC
  // or is not, so two values cover every destination.
  DcId mv_home = kNoDc;
  double mv_cost_home = move_cost_;
  double mv_cost_away = move_cost_;
  if (move_vertex != static_cast<VertexId>(-1)) {
    mv_home = (*initial_locations_)[move_vertex];
    mv_cost_home = MoveCostIfAway(move_vertex, false);
    mv_cost_away = MoveCostIfAway(move_vertex, true);
  }

  // Running aggregate values of the dirty DCs, indexed by DC.
  double dgu[kMaxDataCenters];
  double dgd[kMaxDataCenters];
  double dau[kMaxDataCenters];
  double dad[kMaxDataCenters];
  double dl_g[kMaxDataCenters];
  double dl_a[kMaxDataCenters];
  double dl_s[kMaxDataCenters];
  double dl_c[kMaxDataCenters];
  for (uint64_t rest = dests; rest != 0; rest &= rest - 1) {
    const DcId to = static_cast<DcId>(std::countr_zero(rest));
    if (to == from) {
      out[to] = cached_objective_;
      continue;
    }
    const uint64_t to_bit = Bit(to);
    uint64_t dirty_mask = 0;
    auto touch_dc = [&](DcId r) {
      const uint64_t bit = Bit(r);
      if ((dirty_mask & bit) == 0) {
        dirty_mask |= bit;
        dgu[r] = base_gu[r];
        dgd[r] = base_gd[r];
        dau[r] = base_au[r];
        dad[r] = base_ad[r];
      }
    };
    touch_dc(to);
    if (has_mover) {
      // Per-destination mover fix: as the master, `to` uploads to every
      // mirror (the mid mask minus itself) and stops being a mirror.
      const int in_mid = (mover_mid_em & to_bit) != 0 ? 1 : 0;
      dau[to] += mover_a * (mover_em_pop - in_mid);
      if (in_mid != 0) dad[to] -= mover_a;
      if (mover_high) {
        const int g_in_mid = (mover_mid_im & to_bit) != 0 ? 1 : 0;
        dgd[to] += mover_g * (mover_im_pop - g_in_mid);
        if (g_in_mid != 0) dgu[to] -= mover_g;
      }
    }
    // Walk this destination's correction list: each node is one extra
    // mirror gained here — the master uploads one more copy and the new
    // mirror transfers it (Eq. 2-3).
    for (int32_t idx = s.corr_head_[to]; idx >= 0; idx = corr[idx].next) {
      const EvalScratch::CorrNode& c = corr[idx];
      touch_dc(c.m);
      dau[c.m] += c.a;
      dad[to] += c.a;
      dgd[c.m] += c.g;
      dgu[to] += c.g;
    }
    // Recompute the lanes of the dirty DCs, then accumulate selecting
    // dirty lanes.
    ForEachDc(dirty_mask, [&](DcId r) {
      FinalizeLane(dgu[r], dgd[r], dau[r], dad[r], iu[r], id[r], pp[r],
                   &dl_g[r], &dl_a[r], &dl_s[r], &dl_c[r]);
    });
    double t_gather = 0;
    double t_apply = 0;
    double smooth = 0;
    double cost = 0;
    for (DcId r = 0; r < num_dcs_; ++r) {
      const bool dirty = ((dirty_mask >> r) & 1) != 0;
      const double lg = dirty ? dl_g[r] : base_g[r];
      const double la = dirty ? dl_a[r] : base_a[r];
      const double ls = dirty ? dl_s[r] : base_s[r];
      const double lc = dirty ? dl_c[r] : base_c[r];
      t_gather = std::max(t_gather, lg);
      t_apply = std::max(t_apply, la);
      smooth += ls;
      cost += lc;
    }
    const double mv_cost = to == mv_home ? mv_cost_home : mv_cost_away;
    out[to] = {(t_gather + t_apply) * total_activity_,
               mv_cost + cost * total_activity_,
               smooth * total_activity_};
  }
}

KeptMove PartitionState::EvaluateMoveAll(VertexId v, EvalScratch* scratch,
                                         Objective* out,
                                         MoveArena* keep) const {
  RLCUT_CHECK(derived_placement_);
  std::vector<AffectedDelta>& collection =
      keep != nullptr ? keep->deltas_ : scratch->affected_;
  if (keep == nullptr) collection.clear();
  const size_t begin = collection.size();
  CollectMasterMove(v, scratch, &collection);
  FoldDeltas(collection.data() + begin, collection.size() - begin,
             masters_[v], v, AllDcs(num_dcs_), scratch, out);
  if (keep == nullptr) return KeptMove{};
  return KeptMove{keep, v, masters_[v], static_cast<uint32_t>(begin),
                  static_cast<uint32_t>(collection.size())};
}

Objective PartitionState::EvaluateKeptMove(const KeptMove& move, DcId to,
                                           EvalScratch* scratch,
                                           const KeptMove* prefetch) const {
  RLCUT_DCHECK(masters_[move.v] == move.from);
  if (move.from == to) return cached_objective_;
  // Nothing is collected here, so only the fold's per-DC buffers.
  scratch->EnsureSized(/*num_vertices=*/0, num_dcs_);
  const AffectedDelta* next = nullptr;
  size_t n_next = 0;
  if (prefetch != nullptr) {
    next = prefetch->arena->deltas_.data() + prefetch->begin;
    n_next = prefetch->end - prefetch->begin;
  }
  FoldDeltas(move.arena->deltas_.data() + move.begin, move.end - move.begin,
             move.from, move.v, Bit(to), scratch, scratch->out_.data(), next,
             n_next);
  return scratch->out_[to];
}

void PartitionState::EvaluatePlaceEdgeAll(EdgeId e, EvalScratch* scratch,
                                          Objective* out) const {
  RLCUT_CHECK(!derived_placement_);
  CollectEdgePlace(e, scratch);
  FoldDeltas(scratch->affected_.data(), scratch->affected_.size(),
             edge_dc_[e], static_cast<VertexId>(-1), AllDcs(num_dcs_),
             scratch, out);
}

Objective PartitionState::EvaluateMove(VertexId v, DcId to,
                                       EvalScratch* scratch) const {
  RLCUT_CHECK(derived_placement_);
  const DcId from = masters_[v];
  if (from == to) return cached_objective_;
  EvalScratch& s = *scratch;
  s.affected_.clear();
  CollectMasterMove(v, &s, &s.affected_);
  FoldDeltas(s.affected_.data(), s.affected_.size(), from, v, Bit(to), &s,
             s.out_.data());
  return s.out_[to];
}

Objective PartitionState::EvaluatePlaceEdge(EdgeId e, DcId to,
                                            EvalScratch* scratch) const {
  RLCUT_CHECK(!derived_placement_);
  const DcId from = edge_dc_[e];
  if (from == to) return cached_objective_;
  EvalScratch& s = *scratch;
  CollectEdgePlace(e, &s);
  FoldDeltas(s.affected_.data(), s.affected_.size(), from,
             static_cast<VertexId>(-1), Bit(to), &s, s.out_.data());
  return s.out_[to];
}

Objective PartitionState::ObjectiveFromAggregates(const double* gather_up,
                                                  const double* gather_down,
                                                  const double* apply_up,
                                                  const double* apply_down,
                                                  double mv_cost) const {
  // Eq. 1-3: per stage, per DC, the slower of uplink and downlink; the
  // stage finishes when its slowest DC finishes; stages are separated
  // by a global barrier. The smooth surrogate sums all per-link times
  // instead of taking the max (see Objective::smooth_seconds). Zero-
  // bandwidth links (outage events) price as saturated at a finite
  // floor via the cached LinkBytesPerSec reciprocals.
  double g[kMaxDataCenters];
  double a[kMaxDataCenters];
  double s[kMaxDataCenters];
  double c[kMaxDataCenters];
  FinalizeLanes(gather_up, gather_down, apply_up, apply_down, inv_up_.data(),
                inv_down_.data(), price_per_byte_.data(), num_dcs_, g, a, s,
                c);
  const FinalizeAccum acc = AccumulateLanes(g, a, s, c, num_dcs_);
  return {(acc.t_gather + acc.t_apply) * total_activity_,
          mv_cost + acc.cost * total_activity_,
          acc.smooth * total_activity_};
}

double PartitionState::TransferSecondsPerIteration() const {
  double g[kMaxDataCenters];
  double a[kMaxDataCenters];
  double s[kMaxDataCenters];
  double c[kMaxDataCenters];
  const double* gu = agg_.data();
  FinalizeLanes(gu, gu + num_dcs_, gu + 2 * num_dcs_, gu + 3 * num_dcs_,
                inv_up_.data(), inv_down_.data(), price_per_byte_.data(),
                num_dcs_, g, a, s, c);
  const FinalizeAccum acc = AccumulateLanes(g, a, s, c, num_dcs_);
  return acc.t_gather + acc.t_apply;
}

double PartitionState::RuntimeCostPerIteration() const {
  // Eq. 5: only uploads are charged.
  const double* gather_up = agg_.data();
  const double* apply_up = gather_up + 2 * num_dcs_;
  double cost = 0;
  for (DcId r = 0; r < num_dcs_; ++r) {
    const double up = gather_up[r] + apply_up[r];
    cost += price_per_byte_[r] * up;
  }
  return cost;
}

double PartitionState::WanBytesPerIteration() const {
  const double* gather_up = agg_.data();
  const double* apply_up = gather_up + 2 * num_dcs_;
  double bytes = 0;
  for (DcId r = 0; r < num_dcs_; ++r) {
    bytes += gather_up[r] + apply_up[r];
  }
  return bytes;
}

uint64_t PartitionState::ReplicaMask(VertexId v) const {
  return edge_mask_[v] | Bit(masters_[v]);
}

int PartitionState::MirrorCount(VertexId v) const {
  return PopCount(edge_mask_[v] & ~Bit(masters_[v]));
}

uint64_t PartitionState::MirrorMask(VertexId v) const {
  return edge_mask_[v] & ~Bit(masters_[v]);
}

uint64_t PartitionState::GatherMirrorMask(VertexId v) const {
  return in_mask_[v] & ~Bit(masters_[v]);
}

double PartitionState::ReplicationFactor() const {
  const VertexId n = graph_->num_vertices();
  if (n == 0) return 0;
  return static_cast<double>(replica_count_) / n;
}

uint64_t PartitionState::NumHighDegree() const {
  uint64_t count = 0;
  for (uint8_t h : is_high_) count += h;
  return count;
}

bool PartitionState::CheckInvariants() const {
  // Recompute everything from (masters_, edge_dc_) and compare.
  PartitionState fresh(graph_, topology_, initial_locations_, input_sizes_,
                       config_);
  fresh.derived_placement_ = derived_placement_;
  fresh.masters_ = masters_;
  fresh.edge_dc_ = edge_dc_;
  fresh.RebuildFromPlacement();

  bool ok = true;
  for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
    if (masters_[v] < 0 || masters_[v] >= num_dcs_) {
      RLCUT_LOG(kError) << "vertex " << v << " has out-of-range master "
                        << masters_[v];
      ok = false;
      break;
    }
  }
  auto expect_near = [&](double x, double y, const char* what) {
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    if (std::fabs(x - y) > 1e-6 * scale) {
      RLCUT_LOG(kError) << "invariant mismatch in " << what << ": " << x
                        << " vs " << y;
      ok = false;
    }
  };
  if (cnt_ != fresh.cnt_) {
    RLCUT_LOG(kError) << "invariant mismatch in cnt_";
    ok = false;
  }
  if (in_cnt_ != fresh.in_cnt_) {
    RLCUT_LOG(kError) << "invariant mismatch in in_cnt_";
    ok = false;
  }
  if (edge_mask_ != fresh.edge_mask_) {
    RLCUT_LOG(kError) << "invariant mismatch in edge_mask_";
    ok = false;
  }
  if (in_mask_ != fresh.in_mask_) {
    RLCUT_LOG(kError) << "invariant mismatch in in_mask_";
    ok = false;
  }
  if (masters_in_dc_ != fresh.masters_in_dc_) {
    RLCUT_LOG(kError) << "invariant mismatch in masters_in_dc_";
    ok = false;
  }
  if (edges_in_dc_ != fresh.edges_in_dc_) {
    RLCUT_LOG(kError) << "invariant mismatch in edges_in_dc_";
    ok = false;
  }
  if (replica_bits_ != fresh.replica_bits_) {
    RLCUT_LOG(kError) << "invariant mismatch in replica_bits_";
    ok = false;
  }
  if (meta_ != fresh.meta_) {
    RLCUT_LOG(kError) << "invariant mismatch in meta_ (packed hot fields)";
    ok = false;
  }
  if (replica_count_ != fresh.replica_count_) {
    RLCUT_LOG(kError) << "invariant mismatch in replica_count_: "
                      << replica_count_ << " vs " << fresh.replica_count_;
    ok = false;
  }
  static const char* const kAggNames[4] = {"gather_up", "gather_down",
                                           "apply_up", "apply_down"};
  for (int part = 0; part < 4; ++part) {
    for (DcId r = 0; r < num_dcs_; ++r) {
      const size_t idx = static_cast<size_t>(part) * num_dcs_ + r;
      expect_near(agg_[idx], fresh.agg_[idx], kAggNames[part]);
    }
  }
  for (DcId r = 0; r < num_dcs_; ++r) {
    expect_near(moved_bytes_[r], fresh.moved_bytes_[r], "moved_bytes");
  }
  expect_near(move_cost_, fresh.move_cost_, "move_cost");

  // The cached objective must be exactly what the live aggregates
  // finalize to — any drift means a mutation path forgot to refresh it.
  {
    const double* gu = agg_.data();
    const Objective recomputed =
        ObjectiveFromAggregates(gu, gu + num_dcs_, gu + 2 * num_dcs_,
                                gu + 3 * num_dcs_, move_cost_);
    if (cached_objective_.transfer_seconds != recomputed.transfer_seconds ||
        cached_objective_.cost_dollars != recomputed.cost_dollars ||
        cached_objective_.smooth_seconds != recomputed.smooth_seconds) {
      RLCUT_LOG(kError) << "stale cached objective: "
                        << cached_objective_.transfer_seconds << "/"
                        << cached_objective_.cost_dollars << "/"
                        << cached_objective_.smooth_seconds << " vs "
                        << recomputed.transfer_seconds << "/"
                        << recomputed.cost_dollars << "/"
                        << recomputed.smooth_seconds;
      ok = false;
    }
  }

  // Compare the cached objective end-to-end with the rebuilt state too,
  // so a divergence in the derived views (stale topology pointer, bad
  // activity scaling) cannot hide.
  const Objective cached = CurrentObjective();
  const Objective rebuilt = fresh.CurrentObjective();
  expect_near(cached.transfer_seconds, rebuilt.transfer_seconds,
              "objective.transfer_seconds");
  expect_near(cached.cost_dollars, rebuilt.cost_dollars,
              "objective.cost_dollars");
  expect_near(cached.smooth_seconds, rebuilt.smooth_seconds,
              "objective.smooth_seconds");

  if (derived_placement_) {
    for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
      if (edge_dc_[e] != DerivedEdgeDc(e)) {
        RLCUT_LOG(kError) << "edge " << e
                          << " not at its rule-derived DC: " << edge_dc_[e]
                          << " vs " << DerivedEdgeDc(e);
        ok = false;
        break;
      }
    }
  }
  return ok;
}

uint32_t PartitionState::AutoTheta(const Graph& graph, double fraction) {
  RLCUT_CHECK_GT(fraction, 0.0);
  RLCUT_CHECK_LE(fraction, 1.0);
  const VertexId n = graph.num_vertices();
  if (n == 0) return 2;
  std::vector<uint32_t> in_degrees(n);
  for (VertexId v = 0; v < n; ++v) in_degrees[v] = graph.InDegree(v);
  std::sort(in_degrees.begin(), in_degrees.end(), std::greater<uint32_t>());
  const size_t idx = std::min<size_t>(
      n - 1, static_cast<size_t>(fraction * static_cast<double>(n)));
  return std::max<uint32_t>(2, in_degrees[idx] + 1);
}

}  // namespace rlcut
