// The shard lane: differential oracle for the sharded training runtime
// (docs/sharding.md). One case replays full training runs on a small
// dyadic-exact instance and demands *bit-exact* agreement on the final
// masters, the final objective and the per-shard PRNG states across the
// three equivalences the determinism contract promises:
//
//   * thread invariance — with the shard count fixed, any worker
//     thread count produces the same trajectory (all action-selection
//     modes, including the RNG-drawing kProbability);
//   * shard-vs-single — for the deterministic selection modes (UCB
//     blend/score, greedy), training with N shards equals training
//     with 1 shard, because per-vertex automaton updates within a
//     batch commute and no PRNG is drawn;
//   * cross-thread resume — a run paused mid-flight, round-tripped
//     through a checkpoint, and resumed by a trainer with a different
//     thread count finishes bit-identical to the uninterrupted run.
//
// The compared runs execute the same floating-point operations in the
// same order, so any mismatch is a logic bug in the ownership protocol,
// never FP noise. The case seed picks the graph kind (seed % 3), the
// shard count and selection mode (seed % 4) and the deterministic mode
// (seed % 3), so any 12 consecutive seeds cover every combination.

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "rlcut/checkpoint.h"

namespace rlcut {
namespace check {
namespace {

constexpr VertexId kVertices = 160;
constexpr int kDcs = 4;
constexpr int kMaxSteps = 4;

// Hybrid-cut training problem on the dyadic family. The input sizes of
// 1.0 + 0.25 * (v % 8) bytes are dyadic but not whole GB, so every
// Eq. 4 term is inexact: the move cost must not depend on move order.
Problem ShardProblem(int kind, uint64_t seed) {
  Problem p;
  p.topology = DyadicTopology(1, kDcs);
  p.graph = DyadicGraph(kind, kVertices, 960, seed);
  p.locations.resize(p.graph.num_vertices());
  p.sizes.resize(p.graph.num_vertices());
  for (VertexId v = 0; v < p.graph.num_vertices(); ++v) {
    p.locations[v] = static_cast<DcId>(v % kDcs);
    p.sizes[v] = 1.0 + 0.25 * static_cast<double>(v % 8);
  }
  p.config.model = ComputeModel::kHybridCut;
  p.config.theta = PartitionState::AutoTheta(p.graph);
  p.config.workload = DyadicWorkload();
  return p;
}

RLCutOptions TrainerOptions(ActionSelection selection, int num_shards,
                            int num_threads, uint64_t seed) {
  RLCutOptions topts;
  topts.max_steps = kMaxSteps;
  topts.batch_size = 16;
  topts.num_threads = num_threads;
  topts.num_shards = num_shards;
  topts.selection = selection;
  topts.seed = seed;
  // Deterministic visit budget: wall-clock sampling (Eq. 14) is the
  // one nondeterministic input to a step, so the oracle never uses it.
  topts.agent_visit_budget = static_cast<int64_t>(kVertices) * 4;
  topts.convergence_epsilon = 1e-12;
  return topts;
}

// Everything a lane compares between two runs.
struct RunOutcome {
  std::vector<DcId> masters;
  Objective objective;
  std::vector<std::array<uint64_t, 4>> rng_states;
  uint64_t decisions = 0;
};

// Trains `state` (fresh, or restored with `session`) to the end.
RunOutcome Finish(const Problem& problem, const RLCutOptions& topts,
                  PartitionState* state, AutomatonPool* pool,
                  TrainerSession* session) {
  const TrainResult result =
      RLCutTrainer(topts).Train(state, problem.AllVertices(), pool, session);
  RunOutcome outcome;
  outcome.masters = state->masters();
  outcome.objective = result.final_objective;
  outcome.rng_states = session->rng_states;
  for (const StepStats& step : result.steps) {
    outcome.decisions += step.num_agents;
  }
  return outcome;
}

RunOutcome RunTrainer(const Problem& problem, const RLCutOptions& topts) {
  auto state = problem.MakeState();
  AutomatonPool pool(problem.graph.num_vertices(), kDcs, topts);
  TrainerSession session;
  return Finish(problem, topts, state.get(), &pool, &session);
}

std::string DiffOutcome(const RunOutcome& a, const RunOutcome& b,
                        bool compare_rng) {
  std::ostringstream out;
  if (a.masters != b.masters) {
    size_t diffs = 0;
    VertexId first = 0;
    for (VertexId v = 0; v < a.masters.size() && v < b.masters.size();
         ++v) {
      if (a.masters[v] != b.masters[v]) {
        if (diffs == 0) first = v;
        ++diffs;
      }
    }
    out << " masters differ at " << diffs << " vertices (first v=" << first
        << ": " << (first < a.masters.size() ? a.masters[first] : -1)
        << " vs " << (first < b.masters.size() ? b.masters[first] : -1)
        << ")";
  }
  if (!SameObjective(a.objective, b.objective)) {
    out << " objective" << DiffObjective(a.objective, b.objective);
  }
  if (compare_rng && a.rng_states != b.rng_states) {
    out << " per-shard rng states differ";
  }
  return out.str();
}

}  // namespace

void RunShardCase(uint64_t seed, LaneReport* report) {
  for (const char* count :
       {"training runs", "move decisions", "thread-invariance checks",
        "shard-vs-single checks", "cross-thread resume checks"}) {
    report->Add(count, 0);
  }
  constexpr int kShardCounts[] = {2, 3, 4, 8};
  constexpr ActionSelection kAllModes[] = {
      ActionSelection::kUcbBlend, ActionSelection::kProbability,
      ActionSelection::kUcbScore, ActionSelection::kGreedy};
  constexpr const char* kAllModeNames[] = {"ucb_blend", "probability",
                                           "ucb_score", "greedy"};
  constexpr ActionSelection kDeterministicModes[] = {
      ActionSelection::kUcbBlend, ActionSelection::kUcbScore,
      ActionSelection::kGreedy};
  constexpr const char* kDeterministicModeNames[] = {"ucb_blend",
                                                     "ucb_score", "greedy"};

  const int kind = static_cast<int>(seed % 3);
  const int shards = kShardCounts[seed % 4];
  const ActionSelection mode = kAllModes[seed % 4];
  const Problem problem = ShardProblem(kind, seed);
  auto fail = [&](const std::string& lane, const std::string& message) {
    report->failures.push_back(lane + " (graph kind " + std::to_string(kind) +
                               ", " + std::to_string(shards) +
                               " shards): " + message);
  };

  // ---- Lane A: thread invariance at a fixed shard count. ------------
  // All selection modes, including kProbability (the only one that
  // draws from the per-shard PRNGs); the final RNG states must match
  // too, or a resumed run would diverge later even though the final
  // plan agrees now.
  {
    const std::string lane =
        std::string("thread-invariance[") + kAllModeNames[seed % 4] + "]";
    const RunOutcome reference =
        RunTrainer(problem, TrainerOptions(mode, shards, 1, seed));
    report->Add("training runs", 1);
    for (int threads : {2, 5}) {
      const RunOutcome other =
          RunTrainer(problem, TrainerOptions(mode, shards, threads, seed));
      report->Add("training runs", 1);
      report->Add("move decisions", other.decisions);
      report->Add("thread-invariance checks", 1);
      const std::string diff = DiffOutcome(reference, other, true);
      if (!diff.empty()) {
        fail(lane, std::to_string(threads) +
                       " threads diverged from 1 thread:" + diff);
      }
    }
  }

  // ---- Lane B: sharded vs single-shard, deterministic modes. --------
  // With no PRNG draws, per-vertex automaton updates within a batch
  // commute and the migration stage replays slots in batch order, so
  // the shard count must not change the trajectory either.
  {
    const ActionSelection det_mode = kDeterministicModes[seed % 3];
    const std::string lane = std::string("shard-vs-single[") +
                             kDeterministicModeNames[seed % 3] + "]";
    const RunOutcome single =
        RunTrainer(problem, TrainerOptions(det_mode, 1, 2, seed));
    const RunOutcome sharded =
        RunTrainer(problem, TrainerOptions(det_mode, shards, 2, seed));
    report->Add("training runs", 2);
    report->Add("move decisions", sharded.decisions);
    report->Add("shard-vs-single checks", 1);
    const std::string diff = DiffOutcome(single, sharded, false);
    if (!diff.empty()) {
      fail(lane, std::to_string(shards) + " shards diverged from 1 shard:" +
                     diff);
    }
  }

  // ---- Lane C: checkpoint resume under a different thread count. ----
  {
    const std::string lane =
        std::string("cross-thread-resume[") + kAllModeNames[seed % 4] + "]";
    const RunOutcome uninterrupted =
        RunTrainer(problem, TrainerOptions(mode, shards, 3, seed));
    report->Add("training runs", 1);

    const RLCutOptions pause_opts = TrainerOptions(mode, shards, 3, seed);
    auto state = problem.MakeState();
    AutomatonPool pool(problem.graph.num_vertices(), kDcs, pause_opts);
    TrainerSession session;
    session.stop_after_step = kMaxSteps / 2;
    RLCutTrainer(pause_opts)
        .Train(state.get(), problem.AllVertices(), &pool, &session);
    const TrainerCheckpoint checkpoint =
        CaptureCheckpoint(*state, pool, session, pause_opts.seed);

    // A different host: 1 worker thread instead of 3, same shards.
    const RLCutOptions resume_opts = TrainerOptions(mode, shards, 1, seed);
    auto resumed_state = problem.MakeState();
    AutomatonPool resumed_pool(problem.graph.num_vertices(), kDcs, resume_opts);
    TrainerSession resumed_session;
    if (Status restored = RestoreCheckpoint(checkpoint, resumed_state.get(),
                                            &resumed_pool, &resumed_session);
        !restored.ok()) {
      fail(lane, "RestoreCheckpoint: " + restored.ToString());
      return;
    }
    if (Status resumable =
            RLCutTrainer(resume_opts).ValidateResume(resumed_session);
        !resumable.ok()) {
      fail(lane, "ValidateResume rejected a same-shard-count resume: " +
                     resumable.ToString());
      return;
    }
    const RunOutcome resumed = Finish(problem, resume_opts,
                                      resumed_state.get(), &resumed_pool,
                                      &resumed_session);
    report->Add("training runs", 1);
    report->Add("move decisions", resumed.decisions);
    report->Add("cross-thread resume checks", 1);
    const std::string diff = DiffOutcome(uninterrupted, resumed, true);
    if (!diff.empty()) {
      fail(lane, "resumed run diverged from the uninterrupted run:" + diff);
    }
  }
}

}  // namespace check
}  // namespace rlcut
