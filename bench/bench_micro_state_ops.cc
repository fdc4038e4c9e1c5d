// Micro-benchmarks (google-benchmark) for the hot operations that
// dominate RLCut's training overhead: what-if evaluation, master moves,
// streaming edge placement, full rebuilds, and a GAS super-step.

#include <benchmark/benchmark.h>

#include "cloud/flow_simulator.h"
#include "cloud/topology.h"
#include "common/random.h"
#include "engine/gas_engine.h"
#include "engine/vertex_program.h"
#include "graph/generators.h"
#include "partition/partition_state.h"

namespace rlcut {
namespace {

struct MicroFixture {
  explicit MicroFixture(VertexId n, uint64_t m, ComputeModel model)
      : topology(MakeEc2Topology()) {
    PowerLawOptions opt;
    opt.num_vertices = n;
    opt.num_edges = m;
    graph = GeneratePowerLaw(opt);
    Rng rng(1);
    locations.resize(graph.num_vertices());
    for (auto& l : locations) {
      l = static_cast<DcId>(rng.UniformInt(topology.num_dcs()));
    }
    sizes.assign(graph.num_vertices(), 1e6);
    PartitionConfig config;
    config.model = model;
    config.theta = PartitionState::AutoTheta(graph);
    state = std::make_unique<PartitionState>(&graph, &topology, &locations,
                                             &sizes, config);
    if (model != ComputeModel::kVertexCut) {
      state->ResetDerived(locations);
    }
  }

  Graph graph;
  Topology topology;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  std::unique_ptr<PartitionState> state;
};

void BM_EvaluateMove(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  EvalScratch scratch;
  Rng rng(2);
  for (auto _ : bench_state) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(fix.graph.num_vertices()));
    const DcId to = static_cast<DcId>(rng.UniformInt(8));
    benchmark::DoNotOptimize(fix.state->EvaluateMove(v, to, &scratch));
  }
}
BENCHMARK(BM_EvaluateMove);

void BM_EvaluateMoveAll(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  EvalScratch scratch;
  Objective evals[kMaxDataCenters];
  Rng rng(2);
  for (auto _ : bench_state) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(fix.graph.num_vertices()));
    fix.state->EvaluateMoveAll(v, &scratch, evals);
    benchmark::DoNotOptimize(evals);
  }
}
BENCHMARK(BM_EvaluateMoveAll);

// Reference for the speedup claim: the same all-destination scoring
// done the old way, one EvaluateMove per DC.
void BM_EvaluateMoveLoopAllDcs(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  EvalScratch scratch;
  Rng rng(2);
  for (auto _ : bench_state) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(fix.graph.num_vertices()));
    for (DcId to = 0; to < 8; ++to) {
      benchmark::DoNotOptimize(fix.state->EvaluateMove(v, to, &scratch));
    }
  }
}
BENCHMARK(BM_EvaluateMoveLoopAllDcs);

void BM_EvaluatePlaceEdgeAll(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kVertexCut);
  Rng rng(4);
  for (EdgeId e = 0; e < fix.graph.num_edges(); ++e) {
    fix.state->PlaceEdge(e, static_cast<DcId>(rng.UniformInt(8)));
  }
  EvalScratch scratch;
  Objective evals[kMaxDataCenters];
  for (auto _ : bench_state) {
    const EdgeId e = rng.UniformInt(fix.graph.num_edges());
    fix.state->EvaluatePlaceEdgeAll(e, &scratch, evals);
    benchmark::DoNotOptimize(evals);
  }
}
BENCHMARK(BM_EvaluatePlaceEdgeAll);

void BM_MoveMaster(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  Rng rng(3);
  for (auto _ : bench_state) {
    const VertexId v =
        static_cast<VertexId>(rng.UniformInt(fix.graph.num_vertices()));
    const DcId to = static_cast<DcId>(rng.UniformInt(8));
    fix.state->MoveMaster(v, to);
  }
}
BENCHMARK(BM_MoveMaster);

void BM_PlaceEdge(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kVertexCut);
  Rng rng(4);
  for (auto _ : bench_state) {
    const EdgeId e = rng.UniformInt(fix.graph.num_edges());
    const DcId to = static_cast<DcId>(rng.UniformInt(8));
    fix.state->PlaceEdge(e, to);
  }
}
BENCHMARK(BM_PlaceEdge);

void BM_ResetDerived(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  // Resetting to the masters the state already holds is a no-op, so
  // alternate two master vectors to time a real derive every time.
  std::vector<DcId> shifted = fix.locations;
  for (DcId& m : shifted) m = (m + 1) % fix.topology.num_dcs();
  bool flip = false;
  for (auto _ : bench_state) {
    fix.state->ResetDerived(flip ? shifted : fix.locations);
    flip = !flip;
  }
}
BENCHMARK(BM_ResetDerived);

void BM_CurrentObjective(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(fix.state->CurrentObjective());
  }
}
BENCHMARK(BM_CurrentObjective);

void BM_PageRankSuperStep(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  GasEngine engine(fix.state.get());
  for (auto _ : bench_state) {
    auto program = MakePageRank(1);
    benchmark::DoNotOptimize(engine.Run(program.get()));
  }
}
BENCHMARK(BM_PageRankSuperStep);

void BM_FlowSimulatorStage(benchmark::State& bench_state) {
  Topology topo = MakeEc2Topology();
  FlowSimulator sim(&topo);
  Rng rng(5);
  std::vector<FlowTransfer> flows;
  for (DcId s = 0; s < 8; ++s) {
    for (DcId d = 0; d < 8; ++d) {
      if (s != d) flows.push_back({s, d, rng.UniformDouble() * 1e8});
    }
  }
  for (auto _ : bench_state) {
    benchmark::DoNotOptimize(sim.SimulateMakespan(flows));
  }
}
BENCHMARK(BM_FlowSimulatorStage);

void BM_GingerPartition(benchmark::State& bench_state) {
  MicroFixture fix(1 << 12, 1 << 15, ComputeModel::kHybridCut);
  std::vector<DcId> masters(fix.graph.num_vertices());
  for (auto _ : bench_state) {
    // Greedy pass cost proxy: one full streaming sweep over vertices
    // counting in-neighbor placements (the Ginger inner loop).
    std::vector<double> load(8, 0);
    for (VertexId v = 0; v < fix.graph.num_vertices(); ++v) {
      double best = -1e300;
      DcId pick = 0;
      double counts[8] = {0};
      for (VertexId u : fix.graph.InNeighbors(v)) {
        counts[masters[u] % 8] += 1;
      }
      for (DcId r = 0; r < 8; ++r) {
        const double score = counts[r] - 0.5 * load[r];
        if (score > best) {
          best = score;
          pick = r;
        }
      }
      masters[v] = pick;
      load[pick] += 1;
    }
    benchmark::DoNotOptimize(masters.data());
  }
}
BENCHMARK(BM_GingerPartition);

}  // namespace
}  // namespace rlcut

BENCHMARK_MAIN();
