#include "baselines/leopard.h"

#include <algorithm>
#include <utility>

namespace rlcut {
namespace {

// Greedy replica-affinity placement of one edge (Oblivious-style): the
// least-loaded DC among those holding both endpoints, else either, else
// any.
DcId PickDcForEdge(const PartitionState& state, VertexId src, VertexId dst) {
  const int num_dcs = state.num_dcs();
  const uint64_t shared = state.ReplicaMask(src) & state.ReplicaMask(dst);
  const uint64_t any = state.ReplicaMask(src) | state.ReplicaMask(dst);
  const uint64_t candidates =
      shared != 0 ? shared : (any != 0 ? any : ~0ull >> (64 - num_dcs));
  DcId best = kNoDc;
  for (DcId r = 0; r < num_dcs; ++r) {
    if (!((candidates >> r) & 1)) continue;
    if (best == kNoDc || state.EdgeCount(r) < state.EdgeCount(best)) {
      best = r;
    }
  }
  return best;
}

}  // namespace

Result<std::unique_ptr<LeopardSession>> LeopardSession::Open(
    const PartitionerContext& ctx) {
  RLCUT_RETURN_IF_ERROR(ValidatePartitionerContext(ctx));
  return std::unique_ptr<LeopardSession>(new LeopardSession(ctx));
}

void LeopardSession::Adapt(std::vector<VertexId> /*eligible*/,
                           bool /*first_pass*/) {
  // The unplaced edges identify what changed.
  PartitionState* state = state_.get();
  const Graph& g = state->graph();
  std::vector<VertexId> touched;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (state->edge_dc(e) != kNoDc) continue;
    const VertexId src = g.EdgeSource(e);
    const VertexId dst = g.EdgeTarget(e);
    state->PlaceEdge(e, PickDcForEdge(*state, src, dst));
    touched.push_back(src);
    touched.push_back(dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  // Master refresh: move each touched vertex's master to its
  // most-incident replica DC (Leopard's replication-aware master rule).
  std::vector<uint32_t> incident(state->num_dcs());
  for (VertexId v : touched) {
    std::fill(incident.begin(), incident.end(), 0u);
    for (EdgeId e = g.OutEdgeBegin(v); e < g.OutEdgeEnd(v); ++e) {
      if (state->edge_dc(e) != kNoDc) ++incident[state->edge_dc(e)];
    }
    for (EdgeId e : g.InEdgeIds(v)) {
      if (state->edge_dc(e) != kNoDc) ++incident[state->edge_dc(e)];
    }
    DcId best = state->master(v);
    for (DcId r = 0; r < state->num_dcs(); ++r) {
      if (incident[r] > incident[best]) best = r;
    }
    if (best != state->master(v)) state->SetMaster(v, best);
  }
}

}  // namespace rlcut
