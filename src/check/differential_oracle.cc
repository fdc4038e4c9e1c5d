// The differential oracle lane ("oracle"): one case is one randomized
// move sequence against PartitionState, which must agree *bit-exactly*
// with a from-scratch reconstruction. Exact equality is sound (not a
// flaky tolerance) because every instance is dyadic-exact (see
// check/fixtures.h) and input sizes are whole GB, so every aggregate the
// state maintains additively is an exactly representable double and
// IEEE addition over them is exact — hence order-independent and
// exactly reversible. See docs/correctness.md.
//
// The case seed picks the graph kind (seed % 3), the topology preset
// ((seed / 3) % 3; preset 2 adds an outage schedule) and the compute
// model ((seed / 9) % 3), so any 27 consecutive seeds cover every
// combination. Besides incremental-vs-cold, every move runs the
// batch-vs-single and SoA-vs-legacy lanes, and every master move the
// kept-collection lane: a collection kept across moves of other
// vertices must still fold and commit exactly as a fresh one.

#include <deque>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "check/legacy_reference.h"
#include "cloud/topology_schedule.h"

namespace rlcut {
namespace check {
namespace {

// Instance size: small enough that the O(|E| + |V| M) cold
// reconstruction stays cheap, big enough for multi-DC replication.
constexpr VertexId kVertices = 96;
constexpr uint64_t kEdges = 384;
constexpr int kDcs = 4;
constexpr int kMoves = 32;
constexpr int kInvariantEvery = 16;  // CheckInvariants every N moves
constexpr int kColdEvery = 4;        // cold-reconstruct every N moves

// Outage, drift and recovery with dyadic scale factors. Bandwidth-only
// events may use any positive factor (bandwidth enters the objective
// through division only); price factors must stay dyadic because prices
// multiply into the additively accumulated move cost.
TopologySchedule MakeOracleSchedule(Topology base, int num_dcs) {
  const DcId victim = num_dcs > 1 ? 1 : 0;
  std::vector<TopologyEvent> events;
  events.push_back({8, victim, TopologyEventKind::kOutage, 1, 1, 1});
  events.push_back({20, victim, TopologyEventKind::kRestore, 1, 1, 1});
  events.push_back(
      {28, kAllDcs, TopologyEventKind::kBandwidthScale, 0.5, 0.5, 1});
  events.push_back({36, 0, TopologyEventKind::kPriceScale, 1, 1, 2.0});
  events.push_back({44, kAllDcs, TopologyEventKind::kRestore, 1, 1, 1});
  return TopologySchedule(std::move(base), std::move(events));
}

// Everything observable through the public PartitionState API.
struct Snapshot {
  std::vector<DcId> masters;
  std::vector<DcId> edge_dcs;
  std::vector<uint64_t> replica;
  std::vector<uint64_t> gather_mirror;
  std::vector<uint64_t> master_count;
  std::vector<uint64_t> edge_count;
  Objective objective;
  double move_cost = 0;
  double wan_bytes = 0;
};

Snapshot Capture(const PartitionState& state) {
  Snapshot s;
  const VertexId n = state.graph().num_vertices();
  const EdgeId m = state.graph().num_edges();
  const int dcs = state.num_dcs();
  s.masters = state.masters();
  s.edge_dcs.resize(m);
  for (EdgeId e = 0; e < m; ++e) s.edge_dcs[e] = state.edge_dc(e);
  s.replica.resize(n);
  s.gather_mirror.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    s.replica[v] = state.ReplicaMask(v);
    s.gather_mirror[v] = state.GatherMirrorMask(v);
  }
  s.master_count.resize(dcs);
  s.edge_count.resize(dcs);
  for (DcId r = 0; r < dcs; ++r) {
    s.master_count[r] = state.MasterCount(r);
    s.edge_count[r] = state.EdgeCount(r);
  }
  s.objective = state.CurrentObjective();
  s.move_cost = state.MoveCost();
  s.wan_bytes = state.WanBytesPerIteration();
  return s;
}

// Empty string when identical; otherwise describes the first mismatch.
std::string DiffSnapshots(const Snapshot& a, const Snapshot& b) {
  for (size_t v = 0; v < a.masters.size(); ++v) {
    if (a.masters[v] != b.masters[v]) {
      return "master(" + std::to_string(v) + ") " +
             std::to_string(a.masters[v]) + " vs " +
             std::to_string(b.masters[v]);
    }
    if (a.replica[v] != b.replica[v]) {
      return "replica_mask(" + std::to_string(v) + ")";
    }
    if (a.gather_mirror[v] != b.gather_mirror[v]) {
      return "gather_mirror_mask(" + std::to_string(v) + ")";
    }
  }
  for (size_t e = 0; e < a.edge_dcs.size(); ++e) {
    if (a.edge_dcs[e] != b.edge_dcs[e]) {
      return "edge_dc(" + std::to_string(e) + ") " +
             std::to_string(a.edge_dcs[e]) + " vs " +
             std::to_string(b.edge_dcs[e]);
    }
  }
  for (size_t r = 0; r < a.master_count.size(); ++r) {
    if (a.master_count[r] != b.master_count[r]) {
      return "master_count(" + std::to_string(r) + ")";
    }
    if (a.edge_count[r] != b.edge_count[r]) {
      return "edge_count(" + std::to_string(r) + ")";
    }
  }
  if (!SameObjective(a.objective, b.objective)) {
    return "objective:" + DiffObjective(a.objective, b.objective);
  }
  if (a.move_cost != b.move_cost) {
    return "move_cost " + Hex(a.move_cost) + " vs " + Hex(b.move_cost);
  }
  if (a.wan_bytes != b.wan_bytes) {
    return "wan_bytes " + Hex(a.wan_bytes) + " vs " + Hex(b.wan_bytes);
  }
  return std::string();
}

}  // namespace

void RunOracleCase(uint64_t seed, LaneReport* report) {
  for (const char* count :
       {"moves", "cold recomputes", "rollbacks", "topology updates",
        "invariant checks", "batched evals", "legacy evals", "kept folds",
        "kept commits"}) {
    report->Add(count, 0);
  }
  const int graph_kind = static_cast<int>(seed % 3);
  const int preset = static_cast<int>((seed / 3) % 3);
  const int model_kind = static_cast<int>((seed / 9) % 3);
  Rng rng(seed);

  const Graph graph = DyadicGraph(graph_kind, kVertices, kEdges, rng.Next());
  const VertexId n = graph.num_vertices();
  const EdgeId m = graph.num_edges();

  // Stable addresses for every effective topology this sequence uses;
  // PartitionState keeps a pointer into the store.
  std::deque<Topology> topo_store;
  TopologySchedule schedule;
  if (preset == 2) {
    schedule = MakeOracleSchedule(DyadicTopology(1, kDcs), kDcs);
    topo_store.push_back(schedule.EffectiveAt(0));
  } else {
    topo_store.push_back(DyadicTopology(preset, kDcs));
  }
  const Topology* cur_topo = &topo_store.back();

  // Whole-GB input sizes: size / 1e9 divides back to an exact integer,
  // so every Eq. 4 term is (integer) * (dyadic price) — exact.
  std::vector<DcId> init_locs(n);
  std::vector<double> input_sizes(n);
  for (VertexId v = 0; v < n; ++v) {
    init_locs[v] = static_cast<DcId>(rng.UniformInt(kDcs));
    input_sizes[v] = static_cast<double>(1 + rng.UniformInt(8)) * 1e9;
  }

  PartitionConfig config;
  config.workload = DyadicWorkload();
  switch (model_kind) {
    case 0:
      config.model = ComputeModel::kHybridCut;
      config.theta = PartitionState::AutoTheta(graph, 0.1);
      break;
    case 1:
      config.model = ComputeModel::kEdgeCut;
      break;
    default:
      config.model = ComputeModel::kVertexCut;
      break;
  }
  const bool derived = config.model != ComputeModel::kVertexCut;

  PartitionState state(&graph, cur_topo, &init_locs, &input_sizes, config);
  std::vector<DcId> masters(n);
  for (VertexId v = 0; v < n; ++v) {
    masters[v] = static_cast<DcId>(rng.UniformInt(kDcs));
  }
  if (derived) {
    state.ResetDerived(masters);
  } else {
    std::vector<DcId> edge_dcs(m);
    for (EdgeId e = 0; e < m; ++e) {
      edge_dcs[e] = static_cast<DcId>(rng.UniformInt(kDcs));
    }
    state.ResetWithPlacement(masters, edge_dcs);
  }

  EvalScratch scratch;
  EvalScratch batch_scratch;
  std::vector<Objective> batched(kDcs);
  MoveArena arena;
  // The kept-collection lane draws from its own stream, so the case's
  // move sequence is the same with or without it.
  Rng kept_rng(seed ^ 0x6b657074ull);

  auto fail = [&](int move, const std::string& what) {
    std::ostringstream out;
    out << "move " << move << " [graph=" << graph_kind << " preset=" << preset
        << " model=" << model_kind << "]: " << what;
    report->failures.push_back(out.str());
  };

  // SoA-vs-legacy lane: the live objective against the AoS reference
  // evaluator, bit-exact on the dyadic instances.
  auto legacy_check = [&](int move, const char* where) {
    const Objective live = state.CurrentObjective();
    const Objective legacy = LegacyReferenceObjective(state);
    report->Add("legacy evals", 1);
    if (!SameObjective(live, legacy)) {
      fail(move, std::string(where) + ": SoA vs legacy AoS objective:" +
                     DiffObjective(live, legacy));
    }
  };

  auto cold_check = [&](int move, const char* where) {
    PartitionState fresh(&graph, cur_topo, &init_locs, &input_sizes, config);
    if (derived) {
      fresh.ResetDerived(state.masters());
    } else {
      std::vector<DcId> edge_dcs(m);
      for (EdgeId e = 0; e < m; ++e) edge_dcs[e] = state.edge_dc(e);
      fresh.ResetWithPlacement(state.masters(), edge_dcs);
    }
    report->Add("cold recomputes", 1);
    const Objective live = state.CurrentObjective();
    const Objective cold = fresh.CurrentObjective();
    if (!SameObjective(live, cold)) {
      fail(move, std::string(where) + ": incremental vs cold objective:" +
                     DiffObjective(live, cold));
    }
    if (state.MoveCost() != fresh.MoveCost()) {
      fail(move, std::string(where) + ": incremental vs cold move cost " +
                     Hex(state.MoveCost()) + " vs " + Hex(fresh.MoveCost()));
    }
    if (state.WanBytesPerIteration() != fresh.WanBytesPerIteration()) {
      fail(move,
           std::string(where) + ": incremental vs cold WAN bytes " +
               Hex(state.WanBytesPerIteration()) + " vs " +
               Hex(fresh.WanBytesPerIteration()));
    }
  };

  // Kept-collection lane: keep v's collection, move one to three other
  // vertices (v's neighbors half the time), then the kept collection
  // must fold against the moved state to exactly a fresh EvaluateMove
  // for every destination, and CommitKeptMove must reach exactly the
  // state MoveMaster reaches. Everything is undone afterwards.
  auto kept_check = [&](int move, VertexId v, const Snapshot& pre) {
    arena.Clear();
    const KeptMove kept =
        state.EvaluateMoveAll(v, &batch_scratch, batched.data(), &arena);
    std::vector<std::pair<VertexId, DcId>> undo;
    const auto in = graph.InNeighbors(v);
    const auto out = graph.OutNeighbors(v);
    const int num_others = 1 + static_cast<int>(kept_rng.UniformInt(3));
    for (int k = 0; k < num_others; ++k) {
      VertexId u = static_cast<VertexId>(kept_rng.UniformInt(n));
      if (kept_rng.Bernoulli(0.5) && !in.empty() && !out.empty()) {
        u = kept_rng.Bernoulli(0.5) ? in[kept_rng.UniformInt(in.size())]
                                    : out[kept_rng.UniformInt(out.size())];
      }
      if (u == v) continue;
      undo.emplace_back(u, state.master(u));
      state.MoveMaster(u, static_cast<DcId>(kept_rng.UniformInt(kDcs)));
    }
    for (DcId r = 0; r < kDcs; ++r) {
      report->Add("kept folds", 1);
      const Objective folded = state.EvaluateKeptMove(kept, r, &scratch);
      const Objective fresh = state.EvaluateMove(v, r, &scratch);
      if (!SameObjective(folded, fresh)) {
        fail(move, "EvaluateKeptMove[" + std::to_string(r) +
                       "] after other moves vs EvaluateMove:" +
                       DiffObjective(folded, fresh));
      }
    }
    const DcId to = static_cast<DcId>(
        (kept.from + 1 + static_cast<DcId>(kept_rng.UniformInt(kDcs - 1))) %
        kDcs);
    const Snapshot moved = Capture(state);
    report->Add("kept commits", 1);
    state.CommitKeptMove(kept, to);
    const Snapshot via_kept = Capture(state);
    state.MoveMaster(v, kept.from);
    if (const std::string diff = DiffSnapshots(moved, Capture(state));
        !diff.empty()) {
      fail(move, "rollback of CommitKeptMove not bit-identical: " + diff);
    }
    state.MoveMaster(v, to);
    if (const std::string diff = DiffSnapshots(via_kept, Capture(state));
        !diff.empty()) {
      fail(move, "CommitKeptMove vs MoveMaster: " + diff);
    }
    state.MoveMaster(v, kept.from);
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      state.MoveMaster(it->first, it->second);
    }
    if (const std::string diff = DiffSnapshots(pre, Capture(state));
        !diff.empty()) {
      fail(move, "kept-collection lane left the state changed: " + diff);
    }
  };

  for (int move = 0; move < kMoves; ++move) {
    // Scheduled preset: re-price the live state against the effective
    // topology every 8 moves (move index doubles as the time step).
    if (preset == 2 && move > 0 && move % 8 == 0 &&
        schedule.ChangedBetween(move - 8, move)) {
      topo_store.push_back(schedule.EffectiveAt(move));
      cur_topo = &topo_store.back();
      state.UpdateTopology(cur_topo);
      report->Add("topology updates", 1);
      cold_check(move, "after UpdateTopology");
    }

    report->Add("moves", 1);
    const Snapshot pre = Capture(state);

    if (derived) {
      const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
      const DcId to = static_cast<DcId>(rng.UniformInt(kDcs));
      const DcId from = state.master(v);

      // Batch-vs-single lane: one EvaluateMoveAll against M
      // independent EvaluateMove calls, exact on every entry (both run
      // one fold).
      state.EvaluateMoveAll(v, &batch_scratch, batched.data());
      report->Add("batched evals", 1);
      for (DcId r = 0; r < kDcs; ++r) {
        const Objective single = state.EvaluateMove(v, r, &scratch);
        if (!SameObjective(batched[r], single)) {
          fail(move, "EvaluateMoveAll[" + std::to_string(r) +
                         "] vs EvaluateMove:" +
                         DiffObjective(batched[r], single));
        }
      }
      {
        const std::string batch_diff = DiffSnapshots(pre, Capture(state));
        if (!batch_diff.empty()) {
          fail(move, "EvaluateMoveAll mutated state: " + batch_diff);
        }
      }
      kept_check(move, v, pre);

      const Objective predicted = state.EvaluateMove(v, to, &scratch);
      const std::string eval_diff = DiffSnapshots(pre, Capture(state));
      if (!eval_diff.empty()) {
        fail(move, "EvaluateMove mutated state: " + eval_diff);
      }
      state.MoveMaster(v, to);
      const Objective actual = state.CurrentObjective();
      if (!SameObjective(predicted, actual)) {
        fail(move, "EvaluateMove vs committed objective:" +
                       DiffObjective(predicted, actual));
      }
      legacy_check(move, "after MoveMaster");
      if (move % kColdEvery == 0) cold_check(move, "after MoveMaster");
      if (rng.Bernoulli(0.5)) {
        state.MoveMaster(v, from);
        report->Add("rollbacks", 1);
        const std::string diff = DiffSnapshots(pre, Capture(state));
        if (!diff.empty()) {
          fail(move, "rollback not bit-identical: " + diff);
        }
      }
    } else {
      const bool place_edge = rng.UniformInt(3) != 0;
      if (place_edge) {
        const EdgeId e = rng.UniformInt(m);
        const DcId to = static_cast<DcId>(rng.UniformInt(kDcs));
        const DcId old = state.edge_dc(e);

        // Batch-vs-single lane for explicit placement.
        state.EvaluatePlaceEdgeAll(e, &batch_scratch, batched.data());
        report->Add("batched evals", 1);
        for (DcId r = 0; r < kDcs; ++r) {
          const Objective single = state.EvaluatePlaceEdge(e, r, &scratch);
          if (!SameObjective(batched[r], single)) {
            fail(move, "EvaluatePlaceEdgeAll[" + std::to_string(r) +
                           "] vs EvaluatePlaceEdge:" +
                           DiffObjective(batched[r], single));
          }
        }
        {
          const std::string batch_diff = DiffSnapshots(pre, Capture(state));
          if (!batch_diff.empty()) {
            fail(move, "EvaluatePlaceEdgeAll mutated state: " + batch_diff);
          }
        }

        const Objective predicted = state.EvaluatePlaceEdge(e, to, &scratch);
        const std::string eval_diff = DiffSnapshots(pre, Capture(state));
        if (!eval_diff.empty()) {
          fail(move, "EvaluatePlaceEdge mutated state: " + eval_diff);
        }
        state.PlaceEdge(e, to);
        const Objective actual = state.CurrentObjective();
        if (!SameObjective(predicted, actual)) {
          fail(move, "EvaluatePlaceEdge vs committed objective:" +
                         DiffObjective(predicted, actual));
        }
        legacy_check(move, "after PlaceEdge");
        if (move % kColdEvery == 0) cold_check(move, "after PlaceEdge");
        if (old != kNoDc && rng.Bernoulli(0.5)) {
          state.PlaceEdge(e, old);
          report->Add("rollbacks", 1);
          const std::string diff = DiffSnapshots(pre, Capture(state));
          if (!diff.empty()) {
            fail(move, "PlaceEdge rollback not bit-identical: " + diff);
          }
        }
      } else {
        const VertexId v = static_cast<VertexId>(rng.UniformInt(n));
        const DcId to = static_cast<DcId>(rng.UniformInt(kDcs));
        const DcId from = state.master(v);
        state.SetMaster(v, to);
        legacy_check(move, "after SetMaster");
        if (move % kColdEvery == 0) cold_check(move, "after SetMaster");
        if (rng.Bernoulli(0.5)) {
          state.SetMaster(v, from);
          report->Add("rollbacks", 1);
          const std::string diff = DiffSnapshots(pre, Capture(state));
          if (!diff.empty()) {
            fail(move, "SetMaster rollback not bit-identical: " + diff);
          }
        }
      }
    }

    if (move % kInvariantEvery == kInvariantEvery - 1) {
      report->Add("invariant checks", 1);
      if (!state.CheckInvariants()) {
        fail(move, "CheckInvariants failed");
      }
    }
  }

  // Sequence postcondition: the surviving state is fully consistent.
  report->Add("invariant checks", 1);
  if (!state.CheckInvariants()) {
    fail(kMoves, "final CheckInvariants failed");
  }
  cold_check(kMoves, "sequence end");
}

}  // namespace check
}  // namespace rlcut
