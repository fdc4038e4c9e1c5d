// rlcut_tool: command-line partitioner. Loads a graph (SNAP edge list or
// a built-in dataset preset), partitions it across a geo-distributed
// topology with RLCut or any baseline, reports the Eq. 1-5 quality
// metrics, and optionally saves/loads the plan, a Chrome-trace JSON of
// the run, and a metrics CSV.
//
// Examples (one command each; indented lines continue the line above):
//   rlcut_tool --dataset=TW --scale=2000 --method=RLCut --t_opt=5
//   rlcut_tool --input=graph.el --method=Ginger --dcs=4
//   rlcut_tool --dataset=LJ --load_plan=plan.txt        # evaluate a plan
//   rlcut_tool --dataset=LJ --method=RLCut --save_plan=plan.txt
//   rlcut_tool --dataset=LJ --method=RLCut --threads=1  # one thread
//   rlcut_tool --dataset=TW --method=RLCut --trace_out=trace.json
//       --metrics_out=metrics.csv   # open trace.json in ui.perfetto.dev
//   rlcut_tool --dataset=LJ --method=RLCut --stop_after_step=5
//       --checkpoint_out=run.ckpt   # pause and snapshot a training run
//   rlcut_tool --dataset=LJ --method=RLCut --resume_from=run.ckpt
//   rlcut_tool --dataset=LJ --method=RLCut --net_schedule=diurnal.sched
//   rlcut_tool --dataset=LJ --method=RLCut --checkpoint_out=run.ckpt
//       --checkpoint_every=2   # crash-consistent rotating auto-saves
//   rlcut_tool --dataset=LJ --method=RLCut
//       --faults='threadpool.task_throw:prob=0.05'  # fault drill
//   rlcut_tool --dataset=TW --method=RLCut --vertex_order=degree
//       --save_plan=plan.txt   # train renumbered; plan in original ids
//   rlcut_tool --gen_vertices=1048576 --gen_edges=33554432
//       --vertex_order=degree --save_rlg=tw.rlg --convert_only
//   rlcut_tool --input_rlg=tw.rlg --method=RLCut --t_opt=30
//       --mmap_budget_mb=64 --max_rss_mb=344   # out-of-core training

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/atomic_file.h"
#include "common/flags.h"
#include "common/table_writer.h"
#include "fault/fault.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/io.h"
#include "graph/rlg.h"
#include "graph/transform.h"
#include "net/replica_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/metrics.h"
#include "partition/plan_io.h"
#include "rlcut/checkpoint.h"
#include "rlcut/rlcut_partitioner.h"

namespace {

using namespace rlcut;

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

std::string KnownMethods() {
  std::string out;
  for (const PartitionerInfo& info : ListPartitioners()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

Result<Topology> MakeTopologyFromFlags(const FlagParser& flags) {
  const int dcs = static_cast<int>(flags.GetInt("dcs"));
  const std::string& het = flags.GetString("heterogeneity");
  Heterogeneity level;
  if (het == "low") {
    level = Heterogeneity::kLow;
  } else if (het == "medium") {
    level = Heterogeneity::kMedium;
  } else if (het == "high") {
    level = Heterogeneity::kHigh;
  } else {
    return Status::InvalidArgument("unknown heterogeneity: " + het);
  }
  if (dcs < 2 || dcs > 8) {
    return Status::InvalidArgument("--dcs must be in [2, 8]");
  }
  return MakeEc2Topology(dcs, level);
}

Result<Workload> MakeWorkloadFromFlags(const FlagParser& flags) {
  const std::string& name = flags.GetString("workload");
  if (name == "PR") return Workload::PageRank();
  if (name == "SSSP") return Workload::Sssp();
  if (name == "SI") return Workload::SubgraphIsomorphism();
  return Status::InvalidArgument("unknown workload: " + name +
                                 " (use PR, SSSP or SI)");
}

constexpr uint64_t kMiB = 1024 * 1024;

// How the tool's working ids relate to the input's original ids: either
// an in-process renumbering (--vertex_order; perm + edge map), or a
// renumbered .rlg file's orig-ids section (vertices only — the file does
// not record original edge ids). At most one is active.
struct IdMapping {
  VertexPermutation perm;               // empty = no in-process reorder
  std::vector<EdgeId> old_edge_of_new;  // edge map for the reorder
  std::span<const VertexId> orig_of_new;  // from a mapped .rlg file

  bool active() const {
    return !perm.new_of_old.empty() || !orig_of_new.empty();
  }
};

// Maps a plan computed on the tool's working ids back to original input
// ids before it is written out. Published plans are always in original
// ids, whatever order training ran in.
Result<PartitionPlan> PlanToOriginalIds(PartitionPlan plan,
                                        const IdMapping& ids) {
  if (!ids.perm.new_of_old.empty()) {
    plan.masters = UnpermuteVertexValues(plan.masters, ids.perm);
    if (!plan.edge_dcs.empty()) {
      std::vector<DcId> edge_dcs(plan.edge_dcs.size());
      for (EdgeId e = 0; e < plan.edge_dcs.size(); ++e) {
        edge_dcs[ids.old_edge_of_new[e]] = plan.edge_dcs[e];
      }
      plan.edge_dcs = std::move(edge_dcs);
    }
    return plan;
  }
  if (!ids.orig_of_new.empty()) {
    if (!plan.edge_dcs.empty()) {
      return Status::InvalidArgument(
          "cannot map per-edge placements back to original ids from a "
          "renumbered .rlg file (no edge mapping is stored); re-run on "
          "the original edge list with --vertex_order");
    }
    std::vector<DcId> masters(plan.masters.size());
    for (VertexId v = 0; v < plan.masters.size(); ++v) {
      masters[ids.orig_of_new[v]] = plan.masters[v];
    }
    plan.masters = std::move(masters);
  }
  return plan;
}

// Maps a plan written in original input ids onto the tool's working ids
// so --load_plan evaluates correctly on a renumbered graph.
Result<PartitionPlan> PlanToWorkingIds(PartitionPlan plan,
                                       const IdMapping& ids,
                                       const Graph& graph) {
  if (!ids.active()) return plan;
  if (plan.masters.size() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "plan has " + std::to_string(plan.masters.size()) +
        " masters but the graph has " +
        std::to_string(graph.num_vertices()) + " vertices");
  }
  if (!ids.perm.new_of_old.empty()) {
    plan.masters = PermuteVertexValues(plan.masters, ids.perm);
    if (!plan.edge_dcs.empty()) {
      std::vector<DcId> edge_dcs(plan.edge_dcs.size());
      for (EdgeId e = 0; e < edge_dcs.size(); ++e) {
        edge_dcs[e] = plan.edge_dcs[ids.old_edge_of_new[e]];
      }
      plan.edge_dcs = std::move(edge_dcs);
    }
    return plan;
  }
  if (!plan.edge_dcs.empty()) {
    return Status::InvalidArgument(
        "cannot map per-edge placements onto a renumbered .rlg file "
        "(no edge mapping is stored); evaluate the plan on the "
        "original edge list");
  }
  std::vector<DcId> masters(plan.masters.size());
  for (VertexId v = 0; v < plan.masters.size(); ++v) {
    masters[v] = plan.masters[ids.orig_of_new[v]];
  }
  plan.masters = std::move(masters);
  return plan;
}

// Removes a throwaway .rlg staging file (the --graph_store=mmap path
// without --save_rlg) on every exit path.
struct TempFileGuard {
  std::string path;
  ~TempFileGuard() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

void PrintPerDcTable(const PartitionState& state, std::ostream& os) {
  TableWriter table({"DC", "Masters", "Edges"});
  for (int r = 0; r < state.num_dcs(); ++r) {
    table.AddRow({state.topology().dc(r).name, Fmt(state.MasterCount(r)),
                  Fmt(state.EdgeCount(r))});
  }
  table.Print(os);
}

// Replays a --net_schedule file over the final plan: re-prices the
// layout under the effective topology after every event step and
// tabulates drift / objective / cost. Restores the base topology before
// returning (the schedule's topologies are locals).
Status ReplaySchedule(const std::string& path, const Topology& base,
                      PartitionState* state, std::ostream& os) {
  Result<TopologySchedule> schedule = LoadTopologySchedule(path, base);
  if (!schedule.ok()) return schedule.status();
  os << "\nNetwork schedule " << path << " (" << schedule->events().size()
     << " events):\n";
  TableWriter table({"Time", "Drift", "TransferSec", "Cost$"});
  Topology previous = base;
  SimTime last_time = -1;
  for (const TopologyEvent& event : schedule->events()) {
    if (event.step == last_time) continue;  // one row per event time
    last_time = event.step;
    Topology effective = schedule->EffectiveAt(event.step);
    const double drift = TopologyDrift(previous, effective);
    state->UpdateTopology(&effective);
    const PartitionReport report = MakeReport(*state);
    table.AddRow({Fmt(event.step.seconds()), Fmt(drift),
                  Fmt(report.transfer_seconds),
                  Fmt(report.total_cost)});
    previous = std::move(effective);
    state->UpdateTopology(&base);  // effective dies at end of iteration
  }
  table.Print(os);
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("input", "", "SNAP edge-list file (overrides --dataset)");
  flags.DefineString("dataset", "LJ", "built-in preset: LJ/OT/UK/IT/TW");
  flags.DefineInt("scale", 2000, "preset down-scale factor");
  flags.DefineString("input_rlg", "",
                     "memory-mapped .rlg graph for out-of-core runs "
                     "(overrides --input/--dataset; see docs/performance.md)");
  flags.DefineInt("gen_vertices", 0,
                  "generate a Chung-Lu power-law graph with this many "
                  "vertices instead of loading (with --gen_edges)");
  flags.DefineInt("gen_edges", 0, "edge count for --gen_vertices");
  flags.DefineString("vertex_order", "natural",
                     "renumber vertices before partitioning: natural, "
                     "degree or locality; plans are still published in "
                     "original input ids (a checkpoint property: resuming "
                     "requires the same value)");
  flags.DefineString("save_rlg", "",
                     "write the loaded (and renumbered) graph as .rlg "
                     "here, recording original ids when renumbered");
  flags.DefineBool("convert_only", false,
                   "exit after writing --save_rlg (bounded-memory "
                   "converter mode; nothing is partitioned)");
  flags.DefineString("graph_store", "memory",
                     "memory trains on the heap-owned graph; mmap stages "
                     "it to .rlg (--save_rlg or a temp file) and trains "
                     "through the mapping");
  flags.DefineInt("mmap_budget_mb", 0,
                  "residency governor budget for mapped graphs: drop "
                  "mapped pages whenever RSS exceeds this many MiB "
                  "(0 = off)");
  flags.DefineInt("max_rss_mb", 0,
                  "fail the run if peak RSS (getrusage) exceeds this "
                  "many MiB (0 = off)");
  flags.DefineString("method", "RLCut",
                     "partitioner name; one of: " + KnownMethods());
  flags.DefineString("workload", "PR", "traffic profile: PR, SSSP or SI");
  flags.DefineInt("dcs", 8, "number of EC2-profile DCs (2-8)");
  flags.DefineString("heterogeneity", "medium", "low, medium or high");
  flags.DefineDouble("budget_fraction", 0.4,
                     "budget as a fraction of the centralized-move cost");
  flags.DefineDouble("t_opt", 0, "RLCut time budget in seconds (0 = off)");
  flags.DefineInt("threads", 0,
                  "RLCut trainer threads (0 = hardware concurrency); "
                  "plans do not depend on it");
  flags.DefineInt("theta", 0, "hybrid-cut threshold (0 = auto)");
  flags.DefineInt("seed", 1, "random seed");
  flags.DefineString("save_plan", "", "write the computed plan here");
  flags.DefineString("load_plan", "",
                     "evaluate this plan instead of partitioning");
  flags.DefineString("trace_out", "",
                     "write a Chrome-trace JSON of the run here "
                     "(open in ui.perfetto.dev or chrome://tracing)");
  flags.DefineString("metrics_out", "",
                     "write a CSV snapshot of all recorded metrics here");
  flags.DefineString("checkpoint_out", "",
                     "write an RLCut trainer checkpoint here (RLCut only)");
  flags.DefineString("resume_from", "",
                     "resume RLCut training from this checkpoint");
  flags.DefineInt("stop_after_step", -1,
                  "pause RLCut training before this step "
                  "(use with --checkpoint_out; -1 = run to completion)");
  flags.DefineString("net_schedule", "",
                     "replay this network schedule file over the final "
                     "plan (see docs/dynamic_environments.md)");
  flags.DefineInt("checkpoint_every", 0,
                  "auto-checkpoint RLCut training every N steps to "
                  "--checkpoint_out, rotating the previous save to "
                  "<path>.prev (0 = only the final checkpoint)");
  flags.DefineString("faults", "",
                     "arm this fault-injection spec for the run, e.g. "
                     "'threadpool.task_throw:prob=0.05' "
                     "(see docs/robustness.md)");
  flags.DefineInt("fault_seed", 1, "seed for probabilistic fault triggers");
  flags.DefineString("replica_endpoint", "",
                     "mirror the evolving plan to a rlcut_replica worker "
                     "at host:port while training (RLCut only; exits "
                     "non-zero unless the replica converges — see "
                     "docs/distributed.md)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage(argv[0]);
    return 0;
  }

  // A crash (or an injected fault) in an earlier run can leave a staging
  // file next to an atomic-save target; clear them before writing.
  for (const char* target : {"save_plan", "checkpoint_out"}) {
    const std::string& path = flags.GetString(target);
    if (!path.empty() && RemoveStaleTempFile(path)) {
      std::cout << "Removed stale staging file " << TempPathFor(path)
                << " left by an interrupted run\n";
    }
  }

  if (!flags.GetString("faults").empty()) {
    fault::FaultSchedule schedule;
    std::string error;
    if (!fault::FaultSchedule::Parse(
            flags.GetString("faults"),
            static_cast<uint64_t>(flags.GetInt("fault_seed")), &schedule,
            &error)) {
      return Fail(Status::InvalidArgument("--faults: " + error));
    }
    fault::Arm(schedule);
    std::cout << "Fault injection armed: " << schedule.ToSpec() << "\n";
  }

  // Observability: install the trace recorder before any instrumented
  // work so partitioning, training and evaluation all land in the trace.
  obs::TraceRecorder trace_recorder;
  const bool tracing = !flags.GetString("trace_out").empty();
  if (tracing) obs::SetTraceRecorder(&trace_recorder);
  if (!flags.GetString("metrics_out").empty()) obs::SetDetailedMetrics(true);

  // ---- Problem construction ----------------------------------------------
  Result<VertexOrderKind> order_kind =
      ParseVertexOrderKind(flags.GetString("vertex_order"));
  if (!order_kind.ok()) return Fail(order_kind.status());
  const std::string& graph_store_kind = flags.GetString("graph_store");
  if (graph_store_kind != "memory" && graph_store_kind != "mmap") {
    return Fail(Status::InvalidArgument("--graph_store must be memory or "
                                        "mmap, got " + graph_store_kind));
  }
  if (flags.GetBool("convert_only") && flags.GetString("save_rlg").empty()) {
    return Fail(
        Status::InvalidArgument("--convert_only requires --save_rlg"));
  }
  MmapGraph::Options mmap_options;
  mmap_options.budget_bytes =
      static_cast<size_t>(flags.GetInt("mmap_budget_mb")) * kMiB;

  GraphStore store;
  std::string graph_label;
  IdMapping ids;
  TempFileGuard temp_rlg;
  if (!flags.GetString("input_rlg").empty()) {
    if (*order_kind != VertexOrderKind::kNatural) {
      return Fail(Status::InvalidArgument(
          "--vertex_order applies when building the graph in memory; "
          "bake the order into the file at conversion time instead "
          "(--save_rlg --convert_only --vertex_order=...)"));
    }
    Result<GraphStore> mapped =
        GraphStore::OpenMapped(flags.GetString("input_rlg"), mmap_options);
    if (!mapped.ok()) return Fail(mapped.status());
    store = std::move(*mapped);
    ids.orig_of_new = store.orig_of_new();
    graph_label = flags.GetString("input_rlg") + " (mmap)";
  } else if (flags.GetInt("gen_vertices") > 0) {
    PowerLawOptions gen;
    gen.num_vertices =
        static_cast<VertexId>(flags.GetInt("gen_vertices"));
    gen.num_edges = static_cast<uint64_t>(flags.GetInt("gen_edges"));
    gen.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    if (gen.num_edges == 0) {
      return Fail(
          Status::InvalidArgument("--gen_vertices requires --gen_edges"));
    }
    store = GraphStore::InMemory(GeneratePowerLaw(gen));
    graph_label = "powerlaw(" + std::to_string(gen.num_vertices) + ", " +
                  std::to_string(gen.num_edges) + ")";
  } else if (!flags.GetString("input").empty()) {
    Result<Graph> loaded = LoadEdgeListFile(flags.GetString("input"));
    if (!loaded.ok()) return Fail(loaded.status());
    store = GraphStore::InMemory(std::move(*loaded));
    graph_label = flags.GetString("input");
  } else {
    Result<Dataset> dataset = ParseDataset(flags.GetString("dataset"));
    if (!dataset.ok()) return Fail(dataset.status());
    store = GraphStore::InMemory(
        LoadDataset(*dataset, static_cast<uint64_t>(flags.GetInt("scale")),
                    static_cast<uint64_t>(flags.GetInt("seed"))));
    graph_label = DatasetName(*dataset) + " @1/" +
                  std::to_string(flags.GetInt("scale"));
  }

  Result<Topology> topology = MakeTopologyFromFlags(flags);
  if (!topology.ok()) return Fail(topology.status());
  Result<Workload> workload = MakeWorkloadFromFlags(flags);
  if (!workload.ok()) return Fail(workload.status());

  // Preflight --net_schedule: the replay happens after (potentially
  // long) training, so a missing or malformed file must fail here, not
  // at the end of the run.
  if (!flags.GetString("net_schedule").empty()) {
    Result<TopologySchedule> preflight =
        LoadTopologySchedule(flags.GetString("net_schedule"), *topology);
    if (!preflight.ok()) return Fail(preflight.status());
  }

  // Locations and input sizes are assigned on the input-id graph and
  // permuted alongside any renumbering, so --vertex_order changes the
  // memory layout of the run but never the problem instance.
  GeoLocatorOptions geo;
  geo.num_dcs = topology->num_dcs();
  geo.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  std::vector<DcId> locations = AssignGeoLocations(store.graph(), geo);
  std::vector<double> input_sizes = AssignInputSizes(store.graph());

  if (*order_kind != VertexOrderKind::kNatural) {
    ids.perm = BuildVertexOrder(store.graph(), *order_kind);
    Graph reordered =
        ReorderVertices(store.graph(), ids.perm, &ids.old_edge_of_new);
    store = GraphStore::InMemory(std::move(reordered));
    locations = PermuteVertexValues(locations, ids.perm);
    input_sizes = PermuteVertexValues(input_sizes, ids.perm);
  }

  // --save_rlg: write the working graph, recording original ids whenever
  // the working ids differ from the input's.
  if (!flags.GetString("save_rlg").empty()) {
    const std::string& rlg_path = flags.GetString("save_rlg");
    const std::span<const VertexId> orig =
        !ids.perm.old_of_new.empty()
            ? std::span<const VertexId>(ids.perm.old_of_new)
            : ids.orig_of_new;
    if (Status s = WriteRlgFile(store.graph(), nullptr, orig, rlg_path);
        !s.ok()) {
      return Fail(s);
    }
    std::cout << "Graph (" << VertexOrderKindName(*order_kind)
              << " order) written to " << rlg_path << "\n";
    if (flags.GetBool("convert_only")) return 0;
  }

  // --graph_store=mmap: restage the graph through a .rlg mapping so the
  // run exercises the out-of-core path end to end. Note the in-memory
  // build phase already counted toward peak RSS; for a true
  // bounded-memory run convert first and reopen with --input_rlg.
  if (graph_store_kind == "mmap" && !store.mapped()) {
    std::string rlg_path = flags.GetString("save_rlg");
    if (rlg_path.empty()) {
      rlg_path = temp_rlg.path =
          (std::filesystem::temp_directory_path() /
           ("rlcut_tool." + std::to_string(::getpid()) + ".staging.rlg"))
              .string();
      const std::span<const VertexId> orig =
          !ids.perm.old_of_new.empty()
              ? std::span<const VertexId>(ids.perm.old_of_new)
              : std::span<const VertexId>{};
      if (Status s = WriteRlgFile(store.graph(), nullptr, orig, rlg_path);
          !s.ok()) {
        return Fail(s);
      }
    }
    Result<GraphStore> mapped = GraphStore::OpenMapped(rlg_path, mmap_options);
    if (!mapped.ok()) return Fail(mapped.status());
    store = std::move(*mapped);
    graph_label += " (mmap)";
  }

  const Graph& graph = store.graph();

  const DcId hub = topology->CheapestUploadDc();
  double centralized = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (locations[v] != hub) {
      centralized += topology->UploadCost(locations[v], input_sizes[v]);
    }
  }

  PartitionerContext ctx;
  ctx.graph = &graph;
  ctx.topology = &*topology;
  ctx.locations = &locations;
  ctx.input_sizes = &input_sizes;
  ctx.workload = *workload;
  ctx.theta = flags.GetInt("theta") > 0
                  ? static_cast<uint32_t>(flags.GetInt("theta"))
                  : PartitionState::AutoTheta(graph);
  ctx.budget = flags.GetDouble("budget_fraction") * centralized;
  ctx.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  std::cout << "Graph " << graph_label << ": " << graph.num_vertices()
            << " vertices, " << graph.num_edges() << " edges; "
            << topology->num_dcs() << " DCs ("
            << flags.GetString("heterogeneity") << "), theta=" << ctx.theta
            << ", budget=$" << ctx.budget << "\n\n";

  // Writes --trace_out / --metrics_out if requested. Called on every
  // successful exit path; uninstalls the recorder first so no span can
  // record while the buffer is being serialized.
  auto write_observability_outputs = [&]() -> Status {
    if (tracing) {
      obs::SetTraceRecorder(nullptr);
      const std::string& path = flags.GetString("trace_out");
      std::ofstream os(path);
      if (!os) return Status::IoError("cannot open " + path);
      trace_recorder.WriteChromeTrace(os);
      if (!os.good()) return Status::IoError("failed writing " + path);
      std::cout << "\nTrace (" << trace_recorder.size() << " spans) written"
                << " to " << path << "\n";
    }
    if (!flags.GetString("metrics_out").empty()) {
      const std::string& path = flags.GetString("metrics_out");
      std::ofstream os(path);
      if (!os) return Status::IoError("cannot open " + path);
      obs::DefaultRegistry().WriteCsv(os);
      if (!os.good()) return Status::IoError("failed writing " + path);
      std::cout << "Metrics written to " << path << "\n";
    }
    return Status::Ok();
  };

  // Observability outputs, out-of-core accounting, and the peak-RSS
  // gate; every successful exit path funnels through here.
  auto finish_run = [&]() -> Status {
    if (Status s = write_observability_outputs(); !s.ok()) return s;
    if (store.mapped()) {
      const MmapGraph& mapped = *store.mmap_graph();
      std::cout << "\nMapped graph: " << mapped.mapped_bytes() / kMiB
                << " MiB on disk vs "
                << DualCsrBytes(graph.num_vertices(), graph.num_edges()) /
                       kMiB
                << " MiB in-memory dual-CSR; governor drops: "
                << mapped.mapping()->governor_drops() << "\n";
    }
    const uint64_t peak = PeakRssBytes();
    const uint64_t max_rss_mb =
        static_cast<uint64_t>(flags.GetInt("max_rss_mb"));
    if (max_rss_mb > 0 || store.mapped()) {
      std::cout << "Peak RSS: " << peak / kMiB << " MiB\n";
    }
    if (max_rss_mb > 0 && peak > max_rss_mb * kMiB) {
      return Status::Internal("peak RSS " + std::to_string(peak / kMiB) +
                              " MiB exceeded --max_rss_mb=" +
                              std::to_string(max_rss_mb));
    }
    return Status::Ok();
  };

  // ---- Evaluate an existing plan -------------------------------------------
  if (!flags.GetString("load_plan").empty()) {
    Result<PartitionPlan> loaded_plan = LoadPlan(flags.GetString("load_plan"));
    if (!loaded_plan.ok()) return Fail(loaded_plan.status());
    // Saved plans are in original input ids; map onto the working ids.
    Result<PartitionPlan> plan =
        PlanToWorkingIds(std::move(*loaded_plan), ids, graph);
    if (!plan.ok()) return Fail(plan.status());
    PartitionConfig config;
    config.model = plan->model;
    config.theta = plan->theta;
    config.workload = *workload;
    PartitionState state(&graph, &*topology, &locations, &input_sizes,
                         config);
    if (Status s = ApplyPlan(*plan, &state); !s.ok()) return Fail(s);
    std::cout << "Loaded plan: " << MakeReport(state).ToString() << "\n";
    PrintPerDcTable(state, std::cout);
    if (!flags.GetString("net_schedule").empty()) {
      if (Status s = ReplaySchedule(flags.GetString("net_schedule"),
                                    *topology, &state, std::cout);
          !s.ok()) {
        return Fail(s);
      }
    }
    if (Status s = finish_run(); !s.ok()) return Fail(s);
    return 0;
  }

  // ---- RLCut ---------------------------------------------------------------
  // RLCut drives the trainer directly, with RunRLCut's setup: the
  // checkpoint, resume and replica flags need the trainer's session and
  // sink, which the registry API does not expose.
  const std::string& method = flags.GetString("method");
  const bool wants_replica = !flags.GetString("replica_endpoint").empty();
  const bool wants_trainer = !flags.GetString("checkpoint_out").empty() ||
                             !flags.GetString("resume_from").empty() ||
                             flags.GetInt("stop_after_step") >= 0 ||
                             flags.GetInt("checkpoint_every") > 0 ||
                             flags.GetInt("threads") != 0 || wants_replica;
  if (wants_trainer && method != "RLCut") {
    return Fail(Status::InvalidArgument(
        "--checkpoint_out/--resume_from/--stop_after_step/"
        "--checkpoint_every/--threads/--replica_endpoint require "
        "--method=RLCut"));
  }
  if (method == "RLCut") {
    if (flags.GetInt("checkpoint_every") > 0 &&
        flags.GetString("checkpoint_out").empty()) {
      return Fail(Status::InvalidArgument(
          "--checkpoint_every requires --checkpoint_out"));
    }
    RLCutOptions rl_options;
    rl_options.t_opt_seconds = flags.GetDouble("t_opt");
    rl_options.budget = ctx.budget;
    rl_options.seed = ctx.seed;
    // Saturated into int's range; ValidateRLCutOptions judges the value.
    rl_options.num_threads = static_cast<int>(
        std::clamp<int64_t>(flags.GetInt("threads"),
                            std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max()));
    rl_options.checkpoint_every_steps =
        static_cast<int>(flags.GetInt("checkpoint_every"));
    rl_options.checkpoint_path = flags.GetString("checkpoint_out");

    PartitionConfig config;
    config.model = ComputeModel::kHybridCut;
    config.theta = ctx.theta;
    config.workload = *workload;
    PartitionState state(&graph, &*topology, &locations, &input_sizes,
                         config);
    state.ResetDerived(locations);  // natural partitioning

    // Flag-sourced options go through the validating factory so a bad
    // flag exits with a Status instead of crashing the process.
    Result<std::unique_ptr<RLCutTrainer>> trainer_or =
        RLCutTrainer::Create(rl_options);
    if (!trainer_or.ok()) return Fail(trainer_or.status());
    RLCutTrainer& trainer = **trainer_or;
    AutomatonPool pool(graph.num_vertices(), topology->num_dcs(), rl_options);
    TrainerSession session;
    if (!flags.GetString("resume_from").empty()) {
      Result<LoadedCheckpoint> checkpoint =
          LoadTrainerCheckpointWithFallback(flags.GetString("resume_from"));
      if (!checkpoint.ok()) return Fail(checkpoint.status());
      if (checkpoint->used_fallback) {
        std::cout << "Primary checkpoint unusable ("
                  << checkpoint->primary_error
                  << "); resuming from last-good " << checkpoint->loaded_from
                  << "\n";
      }
      if (Status s = RestoreCheckpoint(checkpoint->checkpoint, &state, &pool,
                                       &session);
          !s.ok()) {
        return Fail(s);
      }
      if (Status s = trainer.ValidateResume(session); !s.ok()) {
        return Fail(s);
      }
      std::cout << "Resumed from " << checkpoint->loaded_from << " at step "
                << session.next_step << "\n";
    }
    session.stop_after_step = static_cast<int>(flags.GetInt("stop_after_step"));

    // Process-split replica: ship the committed moves to a rlcut_replica
    // worker. Network failures degrade (training is never perturbed);
    // convergence is checked after the run.
    std::unique_ptr<net::ReplicaClient> replica_client;
    if (wants_replica) {
      net::ReplicaClientOptions client_options;
      client_options.retry.seed = ctx.seed;
      replica_client = std::make_unique<net::ReplicaClient>(
          net::ReplicaClient::TcpConnector(
              flags.GetString("replica_endpoint"),
              client_options.dial_timeout_ms),
          client_options);
      trainer.SetReplicaSink(replica_client.get());
    }

    std::vector<VertexId> all(graph.num_vertices());
    std::iota(all.begin(), all.end(), 0u);
    TrainResult train;
    try {
      train = trainer.Train(&state, std::move(all), &pool, &session);
    } catch (const std::exception& e) {
      return Fail(Status::Internal(std::string("training failed: ") +
                                   e.what()));
    }

    std::cout << "RLCut " << (session.paused ? "paused before step " : "ran ")
              << (session.paused ? std::to_string(session.next_step)
                                 : std::to_string(session.next_step) + " steps")
              << " in " << train.overhead_seconds << " s\n";
    std::cout << MakeReport(state).ToString() << "\n\n";
    PrintPerDcTable(state, std::cout);

    if (replica_client != nullptr) {
      char fingerprint[32];
      std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                    static_cast<unsigned long long>(
                        replica_client->mirror_fingerprint()));
      std::cout << "Replica " << flags.GetString("replica_endpoint") << ": "
                << (train.replica_status.ok()
                        ? "synced"
                        : train.replica_status.ToString())
                << (train.replica_degraded ? " (was degraded mid-run)" : "")
                << " at v" << replica_client->mirror_version()
                << " fingerprint " << fingerprint << ", "
                << replica_client->resyncs() << " resyncs, "
                << replica_client->reconnects() << " reconnects\n";
      replica_client->CloseConnection();
      // Fail closed: the caller asked for a converged replica.
      if (!train.replica_status.ok()) return Fail(train.replica_status);
    }

    if (!flags.GetString("checkpoint_out").empty()) {
      const TrainerCheckpoint checkpoint =
          CaptureCheckpoint(state, pool, session, ctx.seed);
      if (Status s = SaveTrainerCheckpointRotating(
              checkpoint, flags.GetString("checkpoint_out"));
          !s.ok()) {
        return Fail(s);
      }
      std::cout << "\nCheckpoint written to "
                << flags.GetString("checkpoint_out") << "\n";
    }
    if (!flags.GetString("save_plan").empty()) {
      Result<PartitionPlan> plan = PlanToOriginalIds(ExtractPlan(state), ids);
      if (!plan.ok()) return Fail(plan.status());
      if (Status s = SavePlan(*plan, flags.GetString("save_plan")); !s.ok()) {
        return Fail(s);
      }
      std::cout << "\nPlan written to " << flags.GetString("save_plan")
                << "\n";
    }
    if (!flags.GetString("net_schedule").empty()) {
      if (Status s = ReplaySchedule(flags.GetString("net_schedule"),
                                    *topology, &state, std::cout);
          !s.ok()) {
        return Fail(s);
      }
    }
    if (Status s = finish_run(); !s.ok()) return Fail(s);
    return 0;
  }

  // ---- Partition -----------------------------------------------------------
  PartitionerOptions options;
  options.t_opt_seconds = flags.GetDouble("t_opt");
  Result<std::unique_ptr<Partitioner>> partitioner =
      MakePartitionerByName(method, options);
  if (!partitioner.ok()) return Fail(partitioner.status());

  Result<PartitionOutput> out = Status::Internal("partitioner did not run");
  try {
    out = (*partitioner)->Run(ctx);
  } catch (const std::exception& e) {
    return Fail(
        Status::Internal(std::string("partitioning failed: ") + e.what()));
  }
  if (!out.ok()) return Fail(out.status());
  std::cout << (*partitioner)->name() << " finished in "
            << out->overhead_seconds << " s\n";
  std::cout << MakeReport(out->state).ToString() << "\n\n";
  PrintPerDcTable(out->state, std::cout);

  if (!flags.GetString("save_plan").empty()) {
    Result<PartitionPlan> plan = PlanToOriginalIds(ExtractPlan(out->state), ids);
    if (!plan.ok()) return Fail(plan.status());
    if (Status s = SavePlan(*plan, flags.GetString("save_plan")); !s.ok()) {
      return Fail(s);
    }
    std::cout << "\nPlan written to " << flags.GetString("save_plan")
              << "\n";
  }
  if (!flags.GetString("net_schedule").empty()) {
    if (Status s = ReplaySchedule(flags.GetString("net_schedule"), *topology,
                                  &out->state, std::cout);
        !s.ok()) {
      return Fail(s);
    }
  }
  if (Status s = finish_run(); !s.ok()) return Fail(s);
  return 0;
}
