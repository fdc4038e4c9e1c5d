// The renumber lane: differential oracle for vertex renumbering
// (graph/transform.h) and the memory-mapped .rlg store (graph/rlg.h).
// On small dyadic-exact instances (check/fixtures.h: all additively
// maintained aggregates are exact and order-independent) one case
// demands *bit-exact* agreement across four sub-lanes:
//
//   * structure — the built permutation is a bijection, the reordered
//     graph preserves per-vertex degrees and the edge multiset, and
//     old_edge_of_new maps every reordered edge back to the original
//     edge with mirrored endpoints;
//   * evaluation invariance — a PartitionState built on the reordered
//     graph with permuted attributes reports bit-identical objectives,
//     move costs and WAN bytes, and stays bit-identical under mirrored
//     move sequences (MoveMaster / PlaceEdge / SetMaster through the
//     permutation), including every EvaluateMoveAll /
//     EvaluatePlaceEdgeAll entry;
//   * plan map-back — a plan produced on the reordered instance
//     (trained, for hybrid-cut; randomized, for explicit placement),
//     mapped back to original ids through the inverse permutation and
//     old_edge_of_new, prices bit-identically on the original graph;
//   * mmap round-trip — the reordered graph written to .rlg and
//     reopened through MmapGraph carries the correct orig-ids section
//     and produces bit-identical objectives through the mapped views.
//
// Deliberately NOT asserted: bit-exact trainer *trajectories* across
// renumbering. The trainer's agent sampling breaks degree ties by
// vertex id, so renumbering legitimately changes batch composition and
// hence the trajectory. What renumbering must never change — and what
// this lane pins down — is the meaning of any state or plan.
//
// The case seed picks the vertex order (seed % 2), the compute model
// (seed % 3) and the graph kind ((seed / 3) % 3): any 6 consecutive
// seeds cover every order and model, so small counts still exercise the
// explicit-placement paths.

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "graph/rlg.h"
#include "graph/transform.h"
#include "partition/plan_io.h"
#include "rlcut/rlcut_partitioner.h"

namespace rlcut {
namespace check {
namespace {

constexpr VertexId kVertices = 96;
constexpr int kDcs = 4;
constexpr int kMoves = 48;  // mirrored mutating moves per case
constexpr int kEvals = 32;  // mirrored EvaluateMoveAll calls per case

// One mirrored instance: the original dyadic problem and the same
// problem relabeled by `perm`, with every per-vertex attribute carried
// through the permutation.
struct MirroredInstance {
  Topology topology;
  Graph original;
  Graph reordered;
  VertexPermutation perm;
  std::vector<EdgeId> old_edge_of_new;
  std::vector<EdgeId> new_edge_of_old;
  std::vector<DcId> locations;
  std::vector<DcId> locations_reordered;
  std::vector<double> sizes;
  std::vector<double> sizes_reordered;
  PartitionConfig config;

  MirroredInstance(int kind, VertexOrderKind order, ComputeModel model,
                   Rng* rng)
      : topology(DyadicTopology(1, kDcs)),
        original(DyadicGraph(kind, kVertices, 384, rng->Next())) {
    perm = BuildVertexOrder(original, order);
    reordered = ReorderVertices(original, perm, &old_edge_of_new);
    new_edge_of_old.resize(old_edge_of_new.size());
    for (EdgeId e = 0; e < old_edge_of_new.size(); ++e) {
      new_edge_of_old[old_edge_of_new[e]] = e;
    }
    const VertexId n = original.num_vertices();
    locations.resize(n);
    sizes.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      locations[v] = static_cast<DcId>(rng->UniformInt(kDcs));
      // Whole-GB dyadic input sizes (see differential_oracle.cc).
      sizes[v] = static_cast<double>(1 + rng->UniformInt(8)) * 1e9;
    }
    locations_reordered = PermuteVertexValues(locations, perm);
    sizes_reordered = PermuteVertexValues(sizes, perm);
    config.model = model;
    config.workload = DyadicWorkload();
    if (model == ComputeModel::kHybridCut) {
      // Computed on the original graph and shared: AutoTheta is a
      // degree statistic, but pinning one value keeps the mirrored
      // states trivially identical in configuration.
      config.theta = PartitionState::AutoTheta(original, 0.1);
    }
  }
};

}  // namespace

void RunRenumberCase(uint64_t seed, LaneReport* report) {
  for (const char* count :
       {"structure checks", "mirrored evals", "mirrored moves",
        "map-back checks", "mmap checks"}) {
    report->Add(count, 0);
  }
  const VertexOrderKind kOrders[] = {VertexOrderKind::kDegree,
                                     VertexOrderKind::kLocality};
  const ComputeModel kModels[] = {ComputeModel::kHybridCut,
                                  ComputeModel::kEdgeCut,
                                  ComputeModel::kVertexCut};
  const int graph_kind = static_cast<int>((seed / 3) % 3);
  const VertexOrderKind order = kOrders[seed % 2];
  const ComputeModel model = kModels[seed % 3];
  std::ostringstream tag;
  tag << "graph " << graph_kind << ", order " << VertexOrderKindName(order)
      << ", model " << static_cast<int>(model) << ": ";
  auto fail = [&](const std::string& what) {
    report->failures.push_back(tag.str() + what);
  };
  Rng rng(seed);

  MirroredInstance mi(graph_kind, order, model, &rng);
  const VertexId n = mi.original.num_vertices();
  const EdgeId m = mi.original.num_edges();

  // ---- Lane 1: structure. ------------------------------------------
  {
    const Result<VertexPermutation> checked =
        PermutationFromNewOfOld(mi.perm.new_of_old);
    if (!checked.ok()) {
      fail("permutation not a bijection: " + checked.status().ToString());
      return;
    }
    bool structure_ok = true;
    for (VertexId v = 0; v < n && structure_ok; ++v) {
      const VertexId nv = mi.perm.new_of_old[v];
      if (mi.reordered.OutDegree(nv) != mi.original.OutDegree(v) ||
          mi.reordered.InDegree(nv) != mi.original.InDegree(v)) {
        fail("degree mismatch at original vertex " + std::to_string(v));
        structure_ok = false;
      }
    }
    for (EdgeId e = 0; e < m && structure_ok; ++e) {
      const EdgeId old_e = mi.old_edge_of_new[e];
      if (old_e >= m ||
          mi.perm.new_of_old[mi.original.EdgeSource(old_e)] !=
              mi.reordered.EdgeSource(e) ||
          mi.perm.new_of_old[mi.original.EdgeTarget(old_e)] !=
              mi.reordered.EdgeTarget(e)) {
        fail("edge map-back mismatch at reordered edge " + std::to_string(e));
        structure_ok = false;
      }
    }
    report->Add("structure checks", 1);
    if (!structure_ok) return;
  }

  // ---- Lane 2: evaluation invariance under mirrored mutation. ------
  const bool derived = model != ComputeModel::kVertexCut;
  PartitionState state_orig(&mi.original, &mi.topology, &mi.locations,
                            &mi.sizes, mi.config);
  PartitionState state_reord(&mi.reordered, &mi.topology,
                             &mi.locations_reordered,
                             &mi.sizes_reordered, mi.config);
  {
    std::vector<DcId> masters(n);
    for (VertexId v = 0; v < n; ++v) {
      masters[v] = static_cast<DcId>(rng.UniformInt(kDcs));
    }
    const std::vector<DcId> masters_reordered =
        PermuteVertexValues(masters, mi.perm);
    if (derived) {
      state_orig.ResetDerived(masters);
      state_reord.ResetDerived(masters_reordered);
    } else {
      std::vector<DcId> edge_dcs(m);
      for (EdgeId e = 0; e < m; ++e) {
        edge_dcs[e] = static_cast<DcId>(rng.UniformInt(kDcs));
      }
      std::vector<DcId> edge_dcs_reordered(m);
      for (EdgeId e = 0; e < m; ++e) {
        edge_dcs_reordered[mi.new_edge_of_old[e]] = edge_dcs[e];
      }
      state_orig.ResetWithPlacement(masters, edge_dcs);
      state_reord.ResetWithPlacement(masters_reordered, edge_dcs_reordered);
    }
  }

  EvalScratch scratch_orig;
  EvalScratch scratch_reord;
  Objective evals_orig[kMaxDataCenters];
  Objective evals_reord[kMaxDataCenters];
  auto compare_states = [&](const std::string& when) {
    if (!SameObjective(state_orig.CurrentObjective(),
                       state_reord.CurrentObjective())) {
      fail(when + ": objective" +
           DiffObjective(state_orig.CurrentObjective(),
                         state_reord.CurrentObjective()));
      return false;
    }
    if (state_orig.MoveCost() != state_reord.MoveCost()) {
      fail(when + ": move_cost " + Hex(state_orig.MoveCost()) + " vs " +
           Hex(state_reord.MoveCost()));
      return false;
    }
    if (state_orig.WanBytesPerIteration() !=
        state_reord.WanBytesPerIteration()) {
      fail(when + ": wan_bytes " +
           Hex(state_orig.WanBytesPerIteration()) + " vs " +
           Hex(state_reord.WanBytesPerIteration()));
      return false;
    }
    return true;
  };

  bool lane_ok = compare_states("initial state");
  // Mirrored batched evaluations on a random vertex (or edge) sample.
  const int evals = std::min<int>(kEvals, static_cast<int>(n));
  for (int i = 0; i < evals && lane_ok; ++i) {
    if (derived) {
      const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      state_orig.EvaluateMoveAll(v, &scratch_orig, evals_orig);
      state_reord.EvaluateMoveAll(mi.perm.new_of_old[v], &scratch_reord,
                                  evals_reord);
    } else {
      const EdgeId e = rng.UniformInt(m);
      state_orig.EvaluatePlaceEdgeAll(e, &scratch_orig, evals_orig);
      state_reord.EvaluatePlaceEdgeAll(mi.new_edge_of_old[e],
                                       &scratch_reord, evals_reord);
    }
    for (int r = 0; r < kDcs; ++r) {
      if (!SameObjective(evals_orig[r], evals_reord[r])) {
        fail("mirrored eval " + std::to_string(i) + " dc " +
             std::to_string(r) +
             DiffObjective(evals_orig[r], evals_reord[r]));
        lane_ok = false;
        break;
      }
    }
    report->Add("mirrored evals", 1);
  }
  // Mirrored mutating moves.
  for (int mv = 0; mv < kMoves && lane_ok; ++mv) {
    const DcId to = static_cast<DcId>(rng.UniformInt(kDcs));
    if (derived) {
      const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      state_orig.MoveMaster(v, to);
      state_reord.MoveMaster(mi.perm.new_of_old[v], to);
    } else if (mv % 2 == 0) {
      const EdgeId e = rng.UniformInt(m);
      state_orig.PlaceEdge(e, to);
      state_reord.PlaceEdge(mi.new_edge_of_old[e], to);
    } else {
      const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      state_orig.SetMaster(v, to);
      state_reord.SetMaster(mi.perm.new_of_old[v], to);
    }
    report->Add("mirrored moves", 1);
    if ((mv & 7) == 7) {
      lane_ok = compare_states("after move " + std::to_string(mv));
    }
  }
  if (lane_ok) lane_ok = compare_states("final state");
  if (!lane_ok) return;

  // ---- Lane 3: plan map-back. --------------------------------------
  {
    PartitionPlan plan;
    Objective produced;
    if (model == ComputeModel::kHybridCut) {
      // Train on the reordered instance; the trajectory is the
      // reordered instance's own (see header), but the resulting
      // plan, mapped back, must price identically on the original.
      PartitionerContext ctx;
      ctx.graph = &mi.reordered;
      ctx.topology = &mi.topology;
      ctx.locations = &mi.locations_reordered;
      ctx.input_sizes = &mi.sizes_reordered;
      ctx.theta = mi.config.theta;
      ctx.workload = mi.config.workload;
      ctx.seed = seed;
      RLCutOptions train_opt;
      train_opt.max_steps = 3;
      train_opt.fixed_sample_rate = 0.5;
      train_opt.convergence_epsilon = 0;
      const RLCutRunOutput out = RunRLCut(ctx, train_opt);
      plan = ExtractPlan(out.state);
      produced = out.state.CurrentObjective();
    } else {
      plan = ExtractPlan(state_reord);
      produced = state_reord.CurrentObjective();
    }
    // Map the plan back to original ids.
    plan.masters = UnpermuteVertexValues(plan.masters, mi.perm);
    if (!plan.edge_dcs.empty()) {
      std::vector<DcId> edge_dcs(m);
      for (EdgeId e = 0; e < m; ++e) {
        edge_dcs[mi.old_edge_of_new[e]] = plan.edge_dcs[e];
      }
      plan.edge_dcs = std::move(edge_dcs);
    }
    PartitionState cold(&mi.original, &mi.topology, &mi.locations,
                        &mi.sizes, mi.config);
    if (Status s = ApplyPlan(plan, &cold); !s.ok()) {
      fail("map-back apply: " + s.ToString());
      return;
    }
    if (!SameObjective(cold.CurrentObjective(), produced)) {
      fail("map-back objective" +
           DiffObjective(cold.CurrentObjective(), produced));
      return;
    }
    report->Add("map-back checks", 1);
  }

  // ---- Lane 4: mmap round-trip. ------------------------------------
  {
    const std::string path = ScratchPath("renumber.rlg");
    // mi.reordered is already relabeled, so pass no permutation (the
    // writer's perm argument would relabel a second time) and record
    // the original ids explicitly.
    if (Status s =
            WriteRlgFile(mi.reordered, nullptr, mi.perm.old_of_new, path);
        !s.ok()) {
      fail("rlg write: " + s.ToString());
      return;
    }
    MmapGraph::Options open_opt;
    open_opt.validate_structure = true;
    Result<MmapGraph> mapped = MmapGraph::Open(path, open_opt);
    if (!mapped.ok()) {
      std::remove(path.c_str());
      fail("rlg open: " + mapped.status().ToString());
      return;
    }
    bool mmap_ok = true;
    const auto orig_ids = mapped.value().orig_of_new();
    if (orig_ids.size() != n) {
      fail("orig-ids section missing or wrong size");
      mmap_ok = false;
    }
    for (VertexId v = 0; mmap_ok && v < n; ++v) {
      if (orig_ids[v] != mi.perm.old_of_new[v]) {
        fail("orig-ids mismatch at " + std::to_string(v));
        mmap_ok = false;
      }
    }
    if (mmap_ok) {
      PartitionState state_mapped(&mapped.value().graph(), &mi.topology,
                                  &mi.locations_reordered,
                                  &mi.sizes_reordered, mi.config);
      if (derived) {
        state_mapped.ResetDerived(state_reord.masters());
      } else {
        std::vector<DcId> edge_dcs(m);
        for (EdgeId e = 0; e < m; ++e) {
          edge_dcs[e] = state_reord.edge_dc(e);
        }
        state_mapped.ResetWithPlacement(state_reord.masters(), edge_dcs);
      }
      if (!SameObjective(state_mapped.CurrentObjective(),
                         state_reord.CurrentObjective())) {
        fail("mmap objective" +
             DiffObjective(state_mapped.CurrentObjective(),
                           state_reord.CurrentObjective()));
        mmap_ok = false;
      }
    }
    std::remove(path.c_str());
    if (mmap_ok) report->Add("mmap checks", 1);
  }
}


}  // namespace check
}  // namespace rlcut
