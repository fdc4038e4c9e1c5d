// Dynamic repartitioning demo: a diurnal edge stream (Stack-Overflow-like,
// Fig. 4) arrives in fixed windows, each applied to a partitioning
// session as one micro-batch; RLCut adapts the partitioning within a
// per-window time budget while Spinner adapts best-effort. Prints the
// per-window overhead and resulting transfer time of both.
//
//   ./dynamic_stream [--windows=6] [--window_budget=0.5]

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/spinner.h"
#include "cloud/topology.h"
#include "common/flags.h"
#include "common/table_writer.h"
#include "common/timer.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "rlcut/session.h"

int main(int argc, char** argv) {
  using namespace rlcut;

  FlagParser flags;
  flags.DefineInt("windows", 6, "number of insertion windows to replay");
  flags.DefineDouble("window_budget", 0.5,
                     "per-window adaptation budget, seconds");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n" << flags.Usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage(argv[0]);
    return 0;
  }
  const int num_windows = static_cast<int>(flags.GetInt("windows"));
  const double window_budget = flags.GetDouble("window_budget");

  // A 24h diurnal stream; the first 60% of edges form the initial graph
  // and the rest arrive in equal-duration windows.
  TemporalStreamOptions stream_opt;
  stream_opt.num_vertices = 4096;
  stream_opt.num_edges = 1 << 16;
  TemporalGraph stream = GenerateDiurnalStream(stream_opt);

  const double split_time = stream_opt.horizon_seconds * 0.6;
  const double window_len =
      (stream_opt.horizon_seconds - split_time) / num_windows;

  const Graph initial_graph = stream.Prefix(stream.CountBefore(split_time));

  Topology topology = MakeEc2Topology();
  Graph full = stream.Prefix(stream.edges().size());
  std::vector<DcId> locations =
      AssignGeoLocations(full, GeoLocatorOptions{});
  const std::vector<double> sizes = AssignInputSizes(initial_graph);

  PartitionerContext ctx;
  ctx.graph = &initial_graph;
  ctx.topology = &topology;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = PartitionState::AutoTheta(full);
  ctx.seed = 3;
  RLCutSessionOptions rlcut_options;
  rlcut_options.initial.max_steps = 8;
  rlcut_options.incremental.max_steps = 10;
  rlcut_options.incremental.t_opt_seconds = window_budget;
  std::unique_ptr<PartitioningSession> sessions[] = {
      RLCutSession::Open(ctx, rlcut_options).value(),
      SpinnerSession::Open(ctx, SpinnerOptions{}).value()};

  std::cout << "Initial graph: " << initial_graph.num_edges()
            << " edges; replaying " << num_windows << " windows of "
            << window_len / 3600 << " h each (budget " << window_budget
            << " s/window)\n\n";

  const MigrationBudget unlimited = MigrationBudget::Unlimited();
  for (auto& session : sessions) {
    (void)session->MaybeReoptimize(unlimited).value();
  }

  TableWriter table({"Window", "NewEdges", "RLCut-ovh(s)", "RLCut-T(s)",
                     "Spinner-ovh(s)", "Spinner-T(s)"});
  for (int w = 0; w < num_windows; ++w) {
    const double t0 = split_time + w * window_len;
    const std::vector<Edge> window = stream.EdgesInWindow(t0, t0 + window_len);
    if (window.empty()) continue;
    // A window's overhead: apply it, then re-optimize (which rebuilds).
    std::vector<std::string> row = {Fmt(static_cast<int64_t>(w)),
                                    Fmt(static_cast<uint64_t>(window.size()))};
    for (auto& session : sessions) {
      WallTimer timer;
      (void)session->ApplyDelta(MicroBatchAt(window, SimTime(t0 + window_len)))
          .value();
      const ReoptimizeResult reopt =
          session->MaybeReoptimize(unlimited).value();
      row.push_back(Fmt(timer.ElapsedSeconds(), 4));
      row.push_back(Fmt(reopt.objective.transfer_seconds, 6));
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::cout << "\nRLCut sizes its per-window training to the budget; "
               "Spinner runs to convergence regardless (Sec. VI, Exp#5).\n";
  return 0;
}
