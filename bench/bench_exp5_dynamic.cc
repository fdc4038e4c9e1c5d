// Exp#5 (Fig. 15): dynamic graphs. 70% of the LiveJournal preset forms
// the initial graph; 1%-30% of the remaining edges arrive in one window
// that must be re-partitioned within the window budget. Compares RLCut's
// budget-aware adaptation with Spinner's best-effort label propagation,
// each as a PartitioningSession; a window's overhead is the wall time of
// applying it and re-optimizing, which includes the session's rebuild.

#include <iostream>
#include <memory>

#include "baselines/leopard.h"
#include "baselines/spinner.h"
#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/table_writer.h"
#include "common/timer.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "rlcut/session.h"

namespace rlcut {
namespace {

// The quality and cost of one adapted window.
struct WindowOutcome {
  uint64_t edges = 0;
  double transfer_seconds = 0;
  double overhead_seconds = 0;
};

// Runs the initial partitioning, then one window: `window` is inserted,
// or with `remove` deleted, and the session re-optimizes once.
WindowOutcome RunWindow(PartitioningSession* session,
                        const std::vector<Edge>& window, bool remove) {
  const MigrationBudget unlimited = MigrationBudget::Unlimited();
  (void)session->MaybeReoptimize(unlimited).value();
  WallTimer timer;
  const ApplyResult applied =
      remove ? session->RemoveEdges(window).value()
             : session->ApplyDelta(MicroBatchAt(window, SimTime(1))).value();
  const ReoptimizeResult reopt = session->MaybeReoptimize(unlimited).value();
  return {applied.edges_applied, reopt.objective.transfer_seconds,
          timer.ElapsedSeconds()};
}

}  // namespace
}  // namespace rlcut

int main(int argc, char** argv) {
  using namespace rlcut;

  FlagParser flags;
  flags.DefineInt("scale", 2000, "dataset down-scale factor");
  flags.DefineDouble("window_budget", 0.5,
                     "per-window adaptation budget, seconds (the paper's "
                     "60 s window scaled down with the graphs)");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  const double window_budget = flags.GetDouble("window_budget");

  Graph full = LoadDataset(Dataset::kLiveJournal,
                           static_cast<uint64_t>(flags.GetInt("scale")));
  const Topology topology = MakeEc2Topology();
  GeoLocatorOptions geo;
  geo.num_dcs = topology.num_dcs();
  const std::vector<DcId> locations = AssignGeoLocations(full, geo);
  const GraphSplit split = SplitEdges(full, 0.7, 21);
  GraphBuilder builder(full.num_vertices());
  builder.AddEdges(split.initial_edges);
  const Graph initial = std::move(builder).Build();
  const std::vector<double> sizes = AssignInputSizes(initial);

  PartitionerContext ctx;
  ctx.graph = &initial;
  ctx.topology = &topology;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = PartitionState::AutoTheta(full);
  ctx.seed = 5;
  RLCutSessionOptions rlcut_options;
  rlcut_options.initial.max_steps = 8;
  rlcut_options.incremental.max_steps = 10;
  rlcut_options.incremental.t_opt_seconds = window_budget;
  auto rlcut = [&](const std::vector<Edge>& window, bool remove) {
    return RunWindow(RLCutSession::Open(ctx, rlcut_options).value().get(),
                     window, remove);
  };
  auto spinner = [&](const std::vector<Edge>& window, bool remove) {
    return RunWindow(SpinnerSession::Open(ctx, SpinnerOptions{}).value().get(),
                     window, remove);
  };

  std::cout << "=== Fig. 15: dynamic adaptation, LJ preset ("
            << split.initial_edges.size() << " initial edges, window "
            << "budget " << window_budget << " s; Leopard added as an "
            << "extra dynamic baseline) ===\n";
  TableWriter table({"Insert(%)", "NewEdges", "RLCut-T(s)", "Spinner-T(s)",
                     "Leopard-T(s)", "T-reduction(%)", "RLCut-ovh(s)",
                     "Spinner-ovh(s)", "Leopard-ovh(s)"});

  for (double insert_fraction : {0.01, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}) {
    const size_t count = static_cast<size_t>(
        insert_fraction * static_cast<double>(split.remaining_edges.size()));
    std::vector<Edge> window(split.remaining_edges.begin(),
                             split.remaining_edges.begin() + count);
    const WindowOutcome ours = rlcut(window, false);
    const WindowOutcome theirs = spinner(window, false);
    const WindowOutcome leopard =
        RunWindow(LeopardSession::Open(ctx).value().get(), window, false);

    table.AddRow(
        {Fmt(100 * insert_fraction, 0), Fmt(ours.edges),
         Fmt(ours.transfer_seconds, 6), Fmt(theirs.transfer_seconds, 6),
         Fmt(leopard.transfer_seconds, 6),
         Fmt(100 * (1 - ours.transfer_seconds /
                            std::max(1e-12, theirs.transfer_seconds)),
             1),
         Fmt(ours.overhead_seconds, 3), Fmt(theirs.overhead_seconds, 3),
         Fmt(leopard.overhead_seconds, 3)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper shape: RLCut cuts transfer time 43-60% vs Spinner, "
               "keeps quality stable as inserts grow, and meets the window "
               "budget; Spinner's overhead follows the insert volume "
               "instead of the budget.\n";

  // ---- Edge deletions ("similar observations", Sec. VI-C4) --------------
  std::cout << "\n=== Fig. 15 (deletions): removing 1-30% of the initial "
               "edges in one window ===\n";
  TableWriter del_table({"Delete(%)", "RemovedEdges", "RLCut-T(s)",
                         "Spinner-T(s)", "T-reduction(%)"});
  for (double delete_fraction : {0.01, 0.10, 0.30}) {
    const size_t count = static_cast<size_t>(
        delete_fraction * static_cast<double>(split.initial_edges.size()));
    std::vector<Edge> window(split.initial_edges.begin(),
                             split.initial_edges.begin() + count);
    const WindowOutcome ours = rlcut(window, true);
    const WindowOutcome theirs = spinner(window, true);

    del_table.AddRow(
        {Fmt(100 * delete_fraction, 0), Fmt(ours.edges),
         Fmt(ours.transfer_seconds, 6), Fmt(theirs.transfer_seconds, 6),
         Fmt(100 * (1 - ours.transfer_seconds /
                            std::max(1e-12, theirs.transfer_seconds)),
             1)});
  }
  del_table.Print(std::cout);
  return 0;
}
