#ifndef RLCUT_RLCUT_TRAINER_H_
#define RLCUT_RLCUT_TRAINER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "partition/partition_state.h"
#include "partition/plan_delta.h"
#include "rlcut/automaton.h"
#include "rlcut/options.h"

namespace rlcut {

/// Per-training-step telemetry (drives Fig. 13/14 and Table IV). The
/// trainer fills one per completed step into TrainResult::steps, and
/// the Eq. 14 sampler reads them back as the run's history.
struct StepStats {
  int step = 0;
  double sample_rate = 0;
  uint64_t num_agents = 0;
  double seconds = 0;
  double transfer_seconds = 0;  // objective after the step
  double cost_dollars = 0;
  uint64_t migrations = 0;
  uint64_t rollbacks = 0;
};

/// Resumable cursor of a training run: everything the step loop carries
/// from one step to the next that lives outside the PartitionState and
/// the AutomatonPool. Pass a session to Train with `stop_after_step`
/// set to pause before that step; pass the same session (or one
/// restored from a checkpoint, see rlcut/checkpoint.h) back to continue
/// the run exactly where it left off.
///
/// Continuation is bit-identical to the uninterrupted run for
/// deterministic budgets (no t_opt_seconds; agent_visit_budget and
/// fixed/full sampling are fine) because the wall-clock Eq. 14 sampler
/// is the only nondeterministic input to a step.
struct TrainerSession {
  /// First step the next Train call will execute.
  int next_step = 0;
  /// Pause before this step (-1 = run to completion).
  int stop_after_step = -1;
  /// True once a Train call has populated the cursor fields below.
  bool started = false;
  /// True when the last Train call stopped because of stop_after_step.
  bool paused = false;
  /// True when the run concluded on its own (converged, budget
  /// exhausted, or max_steps reached). Resuming a finished session is a
  /// no-op: the uninterrupted run would not have trained further either.
  bool finished = false;
  int64_t visits_remaining = 0;
  /// Telemetry of the steps completed so far (input to Eq. 14).
  std::vector<StepStats> history;
  /// State of the commit-phase PRNG stream, which only the kProbability
  /// action selection draws from. The trainer writes exactly one;
  /// sessions saved by older, sharded builds may carry one per shard
  /// (see RLCutTrainer::ValidateResume).
  std::vector<std::array<uint64_t, 4>> rng_states;
};

/// Outcome of a training run.
struct TrainResult {
  std::vector<StepStats> steps;
  double overhead_seconds = 0;
  Objective final_objective;
  bool converged = false;
  /// True if training stopped because T_opt was reached.
  bool hit_time_budget = false;
  /// Outcome of the external replica sink, if one was attached with
  /// SetReplicaSink: OK when the sink's Flush confirmed the far side
  /// holds the final plan bit for bit, non-OK when it could not — the
  /// fail-closed signal for callers that require a synced replica.
  /// Every Train call begins and flushes an attached sink, also one
  /// that trains nothing. Always OK when no sink is attached.
  Status replica_status;
  /// True if the sink reported degraded (lossy/stale) operation at any
  /// sync during the run.
  bool replica_degraded = false;
};

/// The RLCut multi-agent trainer (Sec. IV-V).
///
/// Each training step runs the five per-agent stages — score function
/// (Eq. 10), reinforcement signal (Eq. 11), probability update (Eq. 12),
/// UCB action selection (Eq. 13) and globally sequential vertex
/// migration with rollback — with three overhead optimizations:
///
///  * batching: agents within a batch decide against the batch-start
///    state and are scored in parallel, on a team of num_threads
///    members that claim contiguous chunks of the batch; commit and
///    migration then run sequentially in batch order;
///  * straggler mitigation: chunks of equal degree mass (Sec. V-B's
///    degree-balanced agent-to-thread assignment), and the caller
///    re-scores any chunk a helper has not finished once every chunk is
///    claimed — wall clock only, never the trajectory;
///  * adaptive sampling: the lowest-degree SR_i fraction of agents
///    trains in step i, SR_i sized by Eq. 14 to meet T_opt (Sec. V-C).
/// Construction-time validation of trainer options, Status-based like
/// the rest of the fallible API. Fallible entry points (the CLI tools,
/// the partitioner registry) gate on this; the RLCutTrainer constructor
/// itself clamps out-of-range values instead of crashing.
Status ValidateRLCutOptions(const RLCutOptions& options);

/// The trainer's sampling order (Sec. V-C): `agents` by ascending
/// degree, or descending for the Fig. 9 ablation, ties by ascending id.
/// A stable counting sort over the degrees, O(|agents| + the largest
/// degree among them), preceded by an id sort only when `agents` is not
/// already ascending.
void SortAgentsByDegree(const Graph& graph, bool descending,
                        std::vector<VertexId>* agents);

class RLCutTrainer {
 public:
  /// Fallible construction: validates `options` and returns a trainer,
  /// or the ValidateRLCutOptions error. Entry points holding options
  /// from external input (flags, config files) should construct through
  /// this instead of the normalizing constructor below.
  static Result<std::unique_ptr<RLCutTrainer>> Create(
      const RLCutOptions& options);

  /// Infallible construction for callers with programmatic options:
  /// out-of-range values are clamped to their nearest legal value
  /// (max_steps/batch_size to >= 1, the thread count to
  /// [0, kMaxTrainerThreads]).
  explicit RLCutTrainer(const RLCutOptions& options);
  ~RLCutTrainer();

  RLCutTrainer(const RLCutTrainer&) = delete;
  RLCutTrainer& operator=(const RLCutTrainer&) = delete;

  /// Trains over all vertices of the state's graph. The state must use
  /// derived placement (hybrid-cut or edge-cut).
  TrainResult Train(PartitionState* state);

  /// Trains over the given eligible agents only (dynamic adaptation:
  /// the vertices touched by newly inserted edges). A vertex listed
  /// more than once is one agent.
  TrainResult Train(PartitionState* state, std::vector<VertexId> eligible);

  /// Same, but using (and updating) an externally owned automaton pool.
  /// Dynamic drivers pass a persistent pool so per-vertex policies carry
  /// across adaptation windows instead of restarting from uniform.
  /// `pool` must cover the state's vertex and DC counts; nullptr falls
  /// back to a fresh local pool.
  TrainResult Train(PartitionState* state, std::vector<VertexId> eligible,
                    AutomatonPool* pool);

  /// Same, with a resumable session: starts at session->next_step,
  /// pauses before session->stop_after_step (if >= 0), and updates the
  /// session cursor on exit. nullptr behaves like the overload above.
  TrainResult Train(PartitionState* state, std::vector<VertexId> eligible,
                    AutomatonPool* pool, TrainerSession* session);

  /// Whether `session` (typically file-sourced, see rlcut/checkpoint.h)
  /// can be resumed by this trainer. The thread count is deliberately
  /// not checked: no state is keyed by thread, so a session paused on a
  /// 16-core host resumes bit-identically on a 4-core one. The one
  /// refusal is a kProbability session saved with several PRNG streams
  /// (FailedPrecondition naming the count), which this trainer cannot
  /// continue bit-identically. Callers holding sessions from external
  /// input should gate on this instead of letting Train hit its
  /// API-contract CHECK.
  Status ValidateResume(const TrainerSession& session) const;

  size_t num_threads() const { return num_threads_; }
  const RLCutOptions& options() const { return options_; }

  /// Attaches a replica sink: Train begins it with the starting plan at
  /// version 0, pushes the committed moves as one delta every few
  /// batches, each chained on sink->version(), and flushes it on every
  /// exit. The sink is write-only — training decisions never read it —
  /// so a lagging or degraded sink cannot perturb the trajectory.
  /// Without a sink no move is buffered. Not owned; must outlive Train.
  /// nullptr detaches.
  void SetReplicaSink(ReplicaSink* sink) { replica_sink_ = sink; }

 private:
  RLCutOptions options_;
  size_t num_threads_;
  std::unique_ptr<ThreadPool> pool_;
  ReplicaSink* replica_sink_ = nullptr;
};

}  // namespace rlcut

#endif  // RLCUT_RLCUT_TRAINER_H_
