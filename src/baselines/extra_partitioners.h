#ifndef RLCUT_BASELINES_EXTRA_PARTITIONERS_H_
#define RLCUT_BASELINES_EXTRA_PARTITIONERS_H_

#include <memory>

#include "baselines/partitioner.h"

namespace rlcut {

/// Additional published partitioners beyond the paper's six comparisons.
/// They share the Partitioner interface so the comparison benches and
/// the CLI tool can select them by name.

/// PowerGraph's greedy "Oblivious" vertex-cut (Gonzalez et al., OSDI'12).
std::unique_ptr<Partitioner> MakeOblivious();

/// HDRF: High-Degree Replicated First streaming vertex-cut (Petroni et
/// al., CIKM'15). Scores candidate DCs by partial-degree-weighted replica
/// affinity plus a load-balance term.
struct HdrfOptions {
  /// Balance weight lambda (>= 0; HDRF paper uses ~1).
  double lambda = 1.0;
};
std::unique_ptr<Partitioner> MakeHdrf(HdrfOptions options = {});

/// LDG: Linear Deterministic Greedy streaming edge-cut (Stanton &
/// Kliot, KDD'12): place v on the partition with most neighbors, scaled
/// by the remaining capacity factor (1 - |V_i|/C).
std::unique_ptr<Partitioner> MakeLdg();

/// Multilevel edge-cut partitioner (METIS-style): heavy-edge-matching
/// coarsening, greedy initial partitioning, per-level boundary
/// refinement. The offline-quality, network-oblivious reference point.
struct MultilevelOptions {
  /// Stop coarsening once the level has at most this many vertices
  /// per target partition.
  VertexId coarse_vertices_per_dc = 32;
  int max_levels = 20;
  int refinement_passes = 4;
};
std::unique_ptr<Partitioner> MakeMultilevel(MultilevelOptions options = {});

/// Simulated annealing over hybrid-cut masters: the classic
/// single-solution metaheuristic, run from the same natural start and
/// under the same budget rules as RLCut, for equal-work comparisons.
struct AnnealingOptions {
  /// Proposal budget: moves_per_vertex * |V| candidate moves.
  int64_t moves_per_vertex = 20;
  /// Starting temperature as a fraction of the initial energy.
  double initial_temperature = 0.05;
  /// Final temperature as a fraction of the initial temperature.
  double final_temperature_fraction = 1e-3;
  /// Soft penalty weight for exceeding the budget.
  double budget_penalty = 10.0;
};
std::unique_ptr<Partitioner> MakeAnnealing(AnnealingOptions options = {});

/// GrapH (Mayer et al., ICDCS'16): heterogeneity-aware adaptive
/// vertex-cut — cheap hash placement followed by traffic-cost-driven
/// edge migration rounds over the heterogeneous links.
struct GrapHOptions {
  int migration_rounds = 2;
  /// Weight of the monetary-cost term in the migration score.
  double cost_weight = 0.3;
};
std::unique_ptr<Partitioner> MakeGrapH(GrapHOptions options = {});

/// Single-agent RL over the joint (vertex, DC) action space — the
/// alternative Sec. IV argues against. With |V| x M actions the learned
/// distribution stays near-uniform for any realistic training length,
/// so in practice this degenerates into randomized greedy local search;
/// measured findings are in EXPERIMENTS.md (it is surprisingly
/// competitive on raw quality at small scale, but has no notion of a
/// time budget, no parallel decomposition, and no per-vertex policy to
/// carry across dynamic windows — which is where the multi-agent
/// formulation actually earns its keep).
struct SingleAgentRlOptions {
  int64_t moves_per_vertex = 20;
  double alpha = 0.5;  // multiplicative reward/penalty step
};
std::unique_ptr<Partitioner> MakeSingleAgentRl(
    SingleAgentRlOptions options = {});

}  // namespace rlcut

#endif  // RLCUT_BASELINES_EXTRA_PARTITIONERS_H_
