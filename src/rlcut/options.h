#ifndef RLCUT_RLCUT_OPTIONS_H_
#define RLCUT_RLCUT_OPTIONS_H_

#include <cstdint>
#include <string>

namespace rlcut {

/// How an agent picks its action from the automaton state (Sec. IV-C4).
enum class ActionSelection {
  /// Upper Confidence Bound over the mean observed migration score,
  /// blended with the automaton's action probability (paper default).
  kUcbBlend,
  /// UCB over the mean observed score only.
  kUcbScore,
  /// Sample directly from the automaton's probability vector.
  kProbability,
  /// Always take the currently best-scoring DC (pure exploitation).
  kGreedy,
};

/// Largest RLCutOptions::num_threads that ValidateRLCutOptions accepts.
inline constexpr int kMaxTrainerThreads = 1024;

/// Tuning knobs of the RLCut trainer. Defaults follow Sec. VI-A4.
struct RLCutOptions {
  /// LA reward parameter alpha (Eq. 12).
  double alpha = 0.1;
  /// LA penalty parameter beta (Eq. 9). Only used with use_penalty.
  double beta = 0.1;
  /// Update probabilities on penalty signals too (Eq. 8+9). The paper's
  /// Fig. 6 ablation shows reward-only converges ~30x faster, so this
  /// defaults off.
  bool use_penalty = false;

  /// UCB confidence parameter c (Eq. 13).
  double ucb_c = 1.41;
  ActionSelection selection = ActionSelection::kUcbBlend;

  /// Maximum number of training steps (paper default: 10).
  int max_steps = 10;
  /// Agents whose migrations are decided against the same state snapshot
  /// and scored in parallel (paper default: 48).
  int batch_size = 48;
  /// Members of the scoring team (the training thread plus
  /// num_threads - 1 helpers); 0 = hardware concurrency, at most
  /// kMaxTrainerThreads. A host property: it only sets how much scoring
  /// parallelism the trainer uses and never affects the trajectory, so
  /// a checkpoint resumes bit-identically under any thread count.
  int num_threads = 0;

  /// Budget B on inter-DC communication cost, dollars (Eq. 7).
  /// <= 0 disables the constraint.
  double budget = 0;

  /// Required optimization overhead T_opt, seconds. The adaptive sampler
  /// (Eq. 14) sizes each step's agent set to finish within it.
  /// <= 0 disables the time constraint (all agents train every step).
  double t_opt_seconds = 0;
  /// Deterministic alternative to t_opt_seconds: a total budget of agent
  /// visits (one visit = one agent trained for one step) spread evenly
  /// over the remaining steps. Unlike wall-clock budgets this is exactly
  /// reproducible across machines; benches that need stable numbers use
  /// it. 0 disables. When both budgets are set the smaller sampling rate
  /// wins.
  int64_t agent_visit_budget = 0;
  /// Initial sampling rate SR_0 (Sec. V-C).
  double initial_sample_rate = 0.01;
  /// Lower bound on the adaptive sampling rate.
  double min_sample_rate = 0.001;
  /// If > 0, overrides adaptive sampling with a fixed rate (used by the
  /// batch-size study, Exp#3, which fixes SR = 10%).
  double fixed_sample_rate = 0;
  /// Sample the highest-degree agents instead of the lowest-degree ones.
  /// Only for the Fig. 9 ablation — the paper shows low-degree agents
  /// contribute most per unit of training time.
  bool sample_highest_degree_first = false;
  /// Extension beyond the paper: reserve this fraction of each step's
  /// sampled slots for the agents with the largest apply-message volume
  /// (degree-weighted). For uniform-message workloads (PageRank) this is
  /// a no-op in effect; for degree-proportional workloads (subgraph
  /// isomorphism) it lets the few hub masters that dominate the
  /// bottleneck train even at small sampling rates. 0 restores the
  /// paper's pure lowest-degree-first sampling.
  double hub_slot_fraction = 0.1;

  /// Straggler mitigation (Sec. V-B): split each batch's scoring into
  /// chunks of equal degree mass rather than equal agent counts, so a
  /// chunk holding a hub does not hold up the team. It affects wall
  /// clock, never the trajectory.
  bool straggler_mitigation = true;

  /// Extension beyond the paper: weight of the smooth per-link-sum
  /// surrogate in the score function. Eq. 1 is a bottleneck objective on
  /// which most single-vertex moves score exactly 0; the surrogate
  /// supplies a gradient on that plateau. 0 restores Eq. 10 exactly.
  double smooth_weight = 0.2;

  /// Extension beyond the paper: penalize a move's cost increase in the
  /// score with a pressure factor that grows quadratically as total cost
  /// approaches the budget. Eq. 10 alone ignores cost until the budget
  /// is *violated*, which lets early low-value moves exhaust the budget
  /// before high-value moves are considered. false restores Eq. 10
  /// exactly.
  bool budget_pressure = true;

  /// Early stop when a step improves the objective by less than this
  /// relative amount while the budget is satisfied.
  double convergence_epsilon = 1e-4;

  // ---- Crash tolerance (docs/robustness.md) --------------------------

  /// Auto-checkpoint: every N completed steps, write a crash-consistent
  /// rotating checkpoint (primary + ".prev" last-good) to
  /// `checkpoint_path`. 0 disables. Save failures are counted and
  /// logged, never fatal to training.
  int checkpoint_every_steps = 0;
  std::string checkpoint_path;

  uint64_t seed = 1;
};

}  // namespace rlcut

#endif  // RLCUT_RLCUT_OPTIONS_H_
