// The thread lane: differential oracle for the trainer's scoring team.
// One case replays full training runs on a small dyadic-exact instance
// and demands *bit-exact* agreement on the final masters, the final
// objective and the PRNG state across the equivalences the determinism
// contract promises:
//
//   * thread invariance — any team size produces the same trajectory
//     (checked in the case's selection mode, kProbability included);
//   * faulted team — a 3-thread team under a seed-keyed random schedule
//     over the threadpool.* and trainer.chunk_* fault sites, with the
//     case's chunk split, equals the 1-thread unarmed run in all four
//     selection modes: lost, abandoned and stalled chunks are re-scored
//     by the caller and never change a decision. The schedule holds the
//     caller of every batch until a helper has claimed a chunk
//     (threadpool.caller_stall), and each of its rules fires by its
//     fourth hit, so an armed run that records no fire is a failure;
//   * cross-thread resume — a run paused mid-flight, round-tripped
//     through a checkpoint, and resumed by a trainer with a different
//     thread count finishes bit-identical to the uninterrupted run.
//
// The compared runs execute the same floating-point operations in the
// same order, so any mismatch is a logic bug in the team or the commit
// protocol, never FP noise. The case seed picks the graph kind
// (seed % 3), the selection mode (seed % 4), the batch size
// ((seed / 4) % 3) and whether the faulted team splits chunks by degree
// mass ((seed / 12) % 2), so 24 consecutive seeds cover every
// combination.

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "fault/fault.h"
#include "rlcut/checkpoint.h"

namespace rlcut {
namespace check {
namespace {

constexpr VertexId kVertices = 160;
constexpr int kDcs = 4;
constexpr int kMaxSteps = 4;

constexpr ActionSelection kAllModes[] = {
    ActionSelection::kUcbBlend, ActionSelection::kProbability,
    ActionSelection::kUcbScore, ActionSelection::kGreedy};
constexpr const char* kAllModeNames[] = {"ucb_blend", "probability",
                                         "ucb_score", "greedy"};
constexpr int kBatchSizes[] = {16, 7, 48};

// The faults a scoring team can meet. Stalls are short: the caller never
// waits for them, but the team's destructor joins a stalled helper.
// Every rule also fires on one of its first four hits: the held caller
// gives each of the at least four batches of a run a helper claim, and
// so a hit at every site of the schedule until one of them fires.
int64_t EarlyHit(CounterRng* g) {
  return 1 + static_cast<int64_t>(g->Below(4));
}
const FaultCandidate kTeamFaults[] = {
    {"threadpool.task_throw",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.02 + 0.18 * g->NextDouble();
       r->nth = EarlyHit(g);
     }},
    {"threadpool.worker_stall",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.02 + 0.1 * g->NextDouble();
       r->nth = EarlyHit(g);
       r->amount = 1 + static_cast<int64_t>(g->Below(5));
     }},
    {"threadpool.worker_crash",
     [](fault::FaultRule* r, CounterRng* g) {
       r->nth = EarlyHit(g);
       r->max_fires = 1 + static_cast<int64_t>(g->Below(2));
     }},
    {"trainer.chunk_stall",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.2 * g->NextDouble();
       r->nth = EarlyHit(g);
       r->amount = 1 + static_cast<int64_t>(g->Below(10));
     }},
    {"trainer.chunk_abandon",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.2 * g->NextDouble();
       r->nth = EarlyHit(g);
     }},
};

// Hybrid-cut training problem on the dyadic family. The input sizes of
// 1.0 + 0.25 * (v % 8) bytes are dyadic but not whole GB, so every
// Eq. 4 term is inexact: the move cost must not depend on move order.
Problem TeamProblem(int kind, uint64_t seed) {
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

RLCutOptions TrainerOptions(ActionSelection selection, int num_threads,
                            uint64_t seed) {
  RLCutOptions topts;
  topts.max_steps = kMaxSteps;
  topts.batch_size = kBatchSizes[(seed / 4) % 3];
  topts.num_threads = num_threads;
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

std::string DiffOutcome(const RunOutcome& a, const RunOutcome& b) {
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
  if (a.rng_states != b.rng_states) out << " rng states differ";
  return out.str();
}

}  // namespace

void RunThreadCase(uint64_t seed, LaneReport* report) {
  for (const char* count :
       {"training runs", "move decisions", "thread-invariance checks",
        "faulted-team checks", "cross-thread resume checks",
        "injected fires"}) {
    report->Add(count, 0);
  }
  // Never run with a leftover schedule from the caller.
  fault::Disarm();
  const int kind = static_cast<int>(seed % 3);
  const size_t case_mode = seed % 4;
  const ActionSelection mode = kAllModes[case_mode];
  const Problem problem = TeamProblem(kind, seed);
  auto fail = [&](const std::string& lane, const std::string& message) {
    report->failures.push_back(lane + " (graph kind " + std::to_string(kind) +
                               ", batch " +
                               std::to_string(kBatchSizes[(seed / 4) % 3]) +
                               "): " + message);
  };

  // The 1-thread unarmed run of every mode: the reference of lanes A
  // and B.
  std::vector<RunOutcome> single;
  for (ActionSelection m : kAllModes) {
    single.push_back(RunTrainer(problem, TrainerOptions(m, 1, seed)));
    report->Add("training runs", 1);
  }

  // ---- Lane A: thread invariance. -----------------------------------
  // The final RNG state must match too, or a resumed run would diverge
  // later even though the final plan agrees now.
  for (int threads : {2, 5}) {
    const RunOutcome other =
        RunTrainer(problem, TrainerOptions(mode, threads, seed));
    report->Add("training runs", 1);
    report->Add("move decisions", other.decisions);
    report->Add("thread-invariance checks", 1);
    const std::string diff = DiffOutcome(single[case_mode], other);
    if (!diff.empty()) {
      fail(std::string("thread-invariance[") + kAllModeNames[case_mode] + "]",
           std::to_string(threads) + " threads diverged from 1 thread:" +
               diff);
    }
  }

  // ---- Lane B: a faulted team equals the unarmed single thread. -----
  CounterRng rng{SplitMix64(seed) ^ 0x7ea3};
  fault::FaultSchedule schedule = RandomSchedule(seed, kTeamFaults, &rng);
  fault::FaultRule hold;
  hold.site = "threadpool.caller_stall";
  hold.probability = 1;
  schedule.rules.push_back(hold);
  for (size_t m = 0; m < std::size(kAllModes); ++m) {
    RLCutOptions topts = TrainerOptions(kAllModes[m], 3, seed);
    topts.straggler_mitigation = (seed / 12) % 2 == 0;
    fault::Arm(schedule);
    const RunOutcome faulted = RunTrainer(problem, topts);
    const uint64_t fires =
        fault::TotalFires() - fault::FireCount(hold.site);
    fault::Disarm();
    report->Add("injected fires", fires);
    report->Add("training runs", 1);
    report->Add("move decisions", faulted.decisions);
    report->Add("faulted-team checks", 1);
    const std::string lane =
        std::string("faulted-team[") + kAllModeNames[m] + "]";
    if (fires == 0) {
      fail(lane, "3 threads under [" + schedule.ToSpec() +
                     "] injected no fault");
    }
    const std::string diff = DiffOutcome(single[m], faulted);
    if (!diff.empty()) {
      fail(lane, "3 threads under [" + schedule.ToSpec() +
                     "] diverged from 1 unarmed thread:" + diff);
    }
  }

  // ---- Lane C: checkpoint resume under a different thread count. ----
  {
    const std::string lane = std::string("cross-thread-resume[") +
                             kAllModeNames[case_mode] + "]";
    const RunOutcome uninterrupted =
        RunTrainer(problem, TrainerOptions(mode, 3, seed));
    report->Add("training runs", 1);

    const RLCutOptions pause_opts = TrainerOptions(mode, 3, seed);
    auto state = problem.MakeState();
    AutomatonPool pool(problem.graph.num_vertices(), kDcs, pause_opts);
    TrainerSession session;
    session.stop_after_step = kMaxSteps / 2;
    RLCutTrainer(pause_opts)
        .Train(state.get(), problem.AllVertices(), &pool, &session);
    const TrainerCheckpoint checkpoint =
        CaptureCheckpoint(*state, pool, session, pause_opts.seed);

    // A different host: 1 thread instead of 3.
    const RLCutOptions resume_opts = TrainerOptions(mode, 1, seed);
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
      fail(lane, "ValidateResume rejected a one-stream resume: " +
                     resumable.ToString());
      return;
    }
    const RunOutcome resumed = Finish(problem, resume_opts,
                                      resumed_state.get(), &resumed_pool,
                                      &resumed_session);
    report->Add("training runs", 1);
    report->Add("move decisions", resumed.decisions);
    report->Add("cross-thread resume checks", 1);
    const std::string diff = DiffOutcome(uninterrupted, resumed);
    if (!diff.empty()) {
      fail(lane, "resumed run diverged from the uninterrupted run:" + diff);
    }
  }
}

}  // namespace check
}  // namespace rlcut
