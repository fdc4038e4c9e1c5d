// Model fidelity: the partitioners optimize against the analytical
// Eq. 1-5 traffic model (static per-vertex messages x per-iteration
// activity). This bench executes the real GAS engine on each produced
// partitioning and compares the *predicted* transfer time/WAN/cost with
// the *realized* values, per method and workload. The model is only
// useful if the ranking it induces matches the realized ranking.

#include <iostream>
#include <memory>

#include "baselines/extra_partitioners.h"
#include "bench/bench_common.h"
#include "common/flags.h"
#include "common/table_writer.h"
#include "engine/gas_engine.h"
#include "engine/vertex_program.h"
#include "rlcut/rlcut_partitioner.h"

namespace {

using namespace rlcut;

std::unique_ptr<VertexProgram> MakeProgram(const std::string& name,
                                           int iterations) {
  if (name == "PR") return MakePageRank(iterations);
  if (name == "SSSP") return MakeSssp(/*source=*/0, iterations);
  return MakeSubgraphIsomorphism();
}

}  // namespace

int main(int argc, char** argv) {
  using bench::MakeProblem;

  FlagParser flags;
  flags.DefineString("graph", "LJ", "dataset preset");
  flags.DefineInt("scale", 2000, "dataset down-scale factor");
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  Result<Dataset> dataset = ParseDataset(flags.GetString("graph"));
  if (!dataset.ok()) {
    std::cerr << dataset.status().ToString() << "\n";
    return 1;
  }

  const Topology topology = MakeEc2Topology();
  for (const Workload& workload : Workload::AllPaperWorkloads()) {
    auto problem = MakeProblem(*dataset,
                               static_cast<uint64_t>(flags.GetInt("scale")),
                               topology, workload);
    std::cout << "=== Model fidelity (" << DatasetName(*dataset) << ", "
              << workload.name << ") ===\n";
    TableWriter table({"Method", "PredictedT(s)", "RealizedT(s)",
                       "T-ratio", "PredictedWAN(MB)", "RealizedWAN(MB)"});

    // Track rank agreement between predicted and realized transfer.
    std::vector<std::pair<double, double>> pairs;  // (predicted, realized)

    auto evaluate = [&](const std::string& name, PartitionState state) {
      auto program =
          MakeProgram(workload.name, workload.num_iterations());
      GasEngine engine(&state);
      const RunResult run = engine.Run(program.get());
      const Objective predicted = state.CurrentObjective();
      const double predicted_wan =
          state.WanBytesPerIteration() * workload.TotalActivity();
      table.AddRow(
          {name, Fmt(predicted.transfer_seconds, 6),
           Fmt(run.total_transfer_seconds, 6),
           Fmt(run.total_transfer_seconds /
                   std::max(1e-15, predicted.transfer_seconds),
               2),
           Fmt(predicted_wan / 1e6, 3), Fmt(run.total_wan_bytes / 1e6, 3)});
      pairs.push_back(
          {predicted.transfer_seconds, run.total_transfer_seconds});
    };

    for (const char* name : {"RandPG", "HashPL", "Ginger", "Spinner"}) {
      auto partitioner = MakePartitionerByName(name, {}).value();
      evaluate(name, std::move(partitioner->RunOrDie(problem->ctx).state));
    }
    {
      RLCutOptions opt = bench::BenchRLCutOptionsDeterministic(
          problem->ctx.budget, problem->graph.num_vertices());
      evaluate("RLCut", std::move(RunRLCut(problem->ctx, opt).state));
    }

    table.Print(std::cout);

    // Kendall-tau-style concordance over method pairs.
    int concordant = 0;
    int total = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      for (size_t j = i + 1; j < pairs.size(); ++j) {
        ++total;
        const bool same_order = (pairs[i].first < pairs[j].first) ==
                                (pairs[i].second < pairs[j].second);
        if (same_order) ++concordant;
      }
    }
    std::cout << "Rank concordance (predicted vs realized transfer): "
              << concordant << "/" << total << " method pairs\n\n";
  }
  std::cout << "T-ratio < 1 is expected: the model assumes every replica "
               "syncs at the modeled activity every iteration, while the "
               "engine only ships messages for vertices that actually "
               "changed.\n";
  return 0;
}
