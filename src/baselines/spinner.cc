#include "baselines/spinner.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"

namespace rlcut {

int SpinnerCore::Refine(PartitionState* state, std::vector<VertexId> seeds,
                        Rng* rng) {
  const Graph& graph = state->graph();
  const int num_dcs = state->num_dcs();
  const VertexId n = graph.num_vertices();
  const double capacity =
      options_.balance_slack *
      std::max<double>(1.0, static_cast<double>(graph.num_edges()) / num_dcs);

  std::vector<uint8_t> in_frontier(n, 0);
  std::vector<VertexId> frontier = std::move(seeds);
  for (VertexId v : frontier) in_frontier[v] = 1;

  std::vector<double> neighbor_count(num_dcs, 0);
  int iterations = 0;
  for (; iterations < options_.max_iterations; ++iterations) {
    if (frontier.empty()) break;
    rng->Shuffle(frontier);
    std::vector<VertexId> next_frontier;
    uint64_t moves = 0;
    for (VertexId v : frontier) {
      in_frontier[v] = 0;
      std::fill(neighbor_count.begin(), neighbor_count.end(), 0.0);
      for (VertexId u : graph.OutNeighbors(v)) {
        neighbor_count[state->master(u)] += 1;
      }
      for (VertexId u : graph.InNeighbors(v)) {
        neighbor_count[state->master(u)] += 1;
      }
      const DcId current = state->master(v);
      DcId best = current;
      double best_score = -1e300;
      for (DcId r = 0; r < num_dcs; ++r) {
        // Label-propagation score with a multiplicative load penalty;
        // moves into partitions at capacity are forbidden.
        const double load = static_cast<double>(state->EdgeCount(r));
        if (r != current && load >= capacity) continue;
        const double score = neighbor_count[r] * (1.0 - load / capacity);
        if (score > best_score) {
          best_score = score;
          best = r;
        }
      }
      if (best != current && neighbor_count[best] > neighbor_count[current]) {
        state->MoveMaster(v, best);
        ++moves;
        // The move changes the locality of every neighbor.
        auto enqueue = [&](VertexId u) {
          if (!in_frontier[u]) {
            in_frontier[u] = 1;
            next_frontier.push_back(u);
          }
        };
        for (VertexId u : graph.OutNeighbors(v)) enqueue(u);
        for (VertexId u : graph.InNeighbors(v)) enqueue(u);
      }
    }
    if (static_cast<double>(moves) <
        options_.convergence_fraction * static_cast<double>(n)) {
      break;
    }
    frontier = std::move(next_frontier);
  }
  return iterations;
}

namespace {

/// Partitioner adapter: hash-initialized full Spinner run.
class SpinnerPartitioner : public Partitioner {
 public:
  explicit SpinnerPartitioner(SpinnerOptions options) : options_(options) {}

  std::string name() const override { return "Spinner"; }
  ComputeModel model() const override { return ComputeModel::kEdgeCut; }

  PartitionOutput DoRun(const PartitionerContext& ctx) override {
    WallTimer timer;
    const VertexId n = ctx.graph->num_vertices();
    const int num_dcs = ctx.topology->num_dcs();
    Rng rng(ctx.seed);

    std::vector<DcId> masters(n);
    for (VertexId v = 0; v < n; ++v) {
      masters[v] = static_cast<DcId>(HashU64(v ^ ctx.seed) % num_dcs);
    }

    PartitionConfig config;
    config.model = ComputeModel::kEdgeCut;
    config.theta = ctx.theta;
    config.workload = ctx.workload;
    PartitionState state(ctx.graph, ctx.topology, ctx.locations,
                         ctx.input_sizes, config);
    state.ResetDerived(masters);

    std::vector<VertexId> all(n);
    for (VertexId v = 0; v < n; ++v) all[v] = v;
    SpinnerCore core(options_);
    core.Refine(&state, std::move(all), &rng);
    return PartitionOutput(std::move(state), timer.ElapsedSeconds());
  }

 private:
  SpinnerOptions options_;
};

}  // namespace

std::unique_ptr<Partitioner> MakeSpinner(SpinnerOptions options) {
  return std::make_unique<SpinnerPartitioner>(options);
}

Result<std::unique_ptr<SpinnerSession>> SpinnerSession::Open(
    const PartitionerContext& ctx, SpinnerOptions options) {
  RLCUT_RETURN_IF_ERROR(ValidatePartitionerContext(ctx));
  return std::unique_ptr<SpinnerSession>(new SpinnerSession(ctx, options));
}

void SpinnerSession::Adapt(std::vector<VertexId> eligible, bool first_pass) {
  Rng rng(first_pass ? seed_ : seed_ + 1);
  SpinnerCore(options_).Refine(state_.get(), std::move(eligible), &rng);
}

}  // namespace rlcut
