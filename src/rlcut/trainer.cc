#include "rlcut/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <memory>
#include <numeric>
#include <string>

#include "check/invariants.h"
#include "common/logging.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/plan_delta.h"
#include "rlcut/checkpoint.h"

namespace rlcut {
namespace {

// Batches between two deltas pushed to an attached replica sink
// (docs/distributed.md). Larger values batch more moves per push; the
// committed trajectory is unaffected.
constexpr int kSyncEveryBatches = 4;

// Scoring chunks per team member: more than one, so that a member whose
// chunk runs long is balanced by the others claiming the rest.
constexpr size_t kChunksPerThread = 2;

// The commit-phase PRNG stream's seed offset (kProbability selection is
// the only mode that draws from it).
constexpr uint64_t kStreamSeedOffset = 0x9e37;

// Who scored a chunk: nobody yet, the member that claimed it, or the
// caller re-scoring it after the counter ran out.
constexpr uint8_t kUnscored = 0;
constexpr uint8_t kScoredByClaimant = 1;
constexpr uint8_t kRescored = 2;

// delta(x) of Eq. 10: 1 if x > 0 else 0.
inline double Delta(double x) { return x > 0 ? 1.0 : 0.0; }

// Score of moving from objective `before` to `after` (Eq. 10 with the
// last-iteration values replaced by `before`), used both for per-DC
// scores and for the migration rollback check. `smooth_weight` and
// `cost_pressure` are the extension weights (0 = paper-exact Eq. 10).
double ObjectiveScore(const Objective& before, const Objective& after,
                      double tw, double cw, double budget_delta,
                      double smooth_weight, double cost_pressure,
                      double budget) {
  double score = 0;
  if (before.transfer_seconds > 0) {
    score += tw * (before.transfer_seconds - after.transfer_seconds) /
             before.transfer_seconds;
  }
  if (smooth_weight > 0 && before.smooth_seconds > 0) {
    score += smooth_weight * tw *
             (before.smooth_seconds - after.smooth_seconds) /
             before.smooth_seconds;
  }
  if (before.cost_dollars > 0) {
    score += cw * (before.cost_dollars - after.cost_dollars) /
             before.cost_dollars * budget_delta;
  }
  if (cost_pressure > 0 && budget > 0) {
    score -= cost_pressure *
             (after.cost_dollars - before.cost_dollars) / budget;
  }
  return score;
}

// Sampling rate for step `step` per Eq. 14, from the history so far.
double SampleRateForStep(const RLCutOptions& options, int step,
                         const std::vector<StepStats>& history) {
  if (options.fixed_sample_rate > 0) {
    return std::min(1.0, options.fixed_sample_rate);
  }
  if (options.t_opt_seconds <= 0) return 1.0;
  // No completed-step telemetry yet: fall back to the bootstrap rate.
  // `history` can be empty with step > 0 when a resumed session was
  // paused before its first completed step.
  if (step == 0 || history.empty()) return options.initial_sample_rate;

  // Eq. 14: remaining time per remaining step, times the mean observed
  // sampling-rate-per-second of past steps.
  double spent = 0;
  double rate_per_second = 0;
  for (const StepStats& s : history) {
    spent += s.seconds;
    rate_per_second += s.sample_rate / std::max(1e-9, s.seconds);
  }
  rate_per_second /= history.size();
  const double remaining = options.t_opt_seconds - spent;
  if (remaining <= 0) return 0;  // out of time
  const double per_step = remaining / (options.max_steps - step);
  const double sr = per_step * rate_per_second;
  return std::clamp(sr, options.min_sample_rate, 1.0);
}

obs::Counter* TrainerCounter(const char* name) {
  return obs::DefaultRegistry().GetCounter(name);
}

// Per-batch stage timings are histogram observations; they are only
// taken when detailed metrics are on (SetDetailedMetrics).
obs::Histogram* StageHistogram(const char* name) {
  return obs::DetailedMetricsEnabled()
             ? obs::DefaultRegistry().GetHistogram(name)
             : nullptr;
}

// Eq. 10 scores of one batch, indexed by slot: scores[slot * num_dcs +
// r] and the best DC rho[slot], kept beside what they were computed
// from for Migrate to reuse: the objective after each move,
// objectives[slot * num_dcs + r], and the slot's collection, kept[slot]
// (a slice of the scoring member's arena). Scoring is pure (it reads
// the frozen batch-start state and writes only its chunk's slots here
// and its own arena), so a chunk may be scored twice at once, by its
// claimant and by the caller, and either result is the same.
struct SlotScores {
  std::vector<double> scores;
  std::vector<DcId> rho;
  std::vector<Objective> objectives;
  std::vector<KeptMove> kept;
};

// What one team member scores with: its evaluation scratch and the
// arena its kept collections go to. Members append to their arenas
// concurrently, so each gets cache lines of its own.
struct alignas(64) TeamMember {
  EvalScratch scratch;
  MoveArena arena;
};

// One slot's proposed migration, in slot order: its agent's chosen DC,
// the collection scoring kept for the agent, and the objective scoring
// priced for that DC against the batch-start state.
struct Proposal {
  size_t slot;
  DcId to;
  const KeptMove* move;
  const Objective* priced;
};

// The working state of one RLCutTrainer::Train call. The members are
// what the step loop carries; each stage of a step is one member
// function. Train drives it: Start, then Step once per training step,
// then Finish on every exit.
struct TrainLoop {
  TrainLoop(const RLCutTrainer& trainer, ThreadPool* workers, ReplicaSink* sink,
            PartitionState* state, std::vector<VertexId> eligible,
            TrainerSession* session)
      : options(trainer.options()),
        num_threads(trainer.num_threads()),
        workers(*workers),
        state(state),
        graph(state->graph()),
        num_dcs(state->num_dcs()),
        session(session),
        eligible(std::move(eligible)),
        members(num_threads),
        rng(options.seed + kStreamSeedOffset),
        scored_by(num_threads * kChunksPerThread),
        sink(sink) {}

  bool Start(AutomatonPool* pool);
  bool Step(int step);
  TrainResult Finish();

  // Stages of a step.
  double SampleRate(int step) const;
  void Sample(double sr);
  void RunBatch(int step, StepStats* stats);
  void SplitChunks();
  void Score();
  void ScoreClaimed(size_t c, size_t member);
  void Rescore();
  bool ScoreChunk(size_t c, EvalScratch* es, MoveArena* arena,
                  SlotScores* out) const;
  void Commit(int step);
  void Migrate(StepStats* stats);
  void AuditReuse(const Proposal& p, const Objective& after, bool folded,
                  int step);
  void PushToSink();
  bool EndStep(int step, const WallTimer& step_timer, StepStats* stats);
  void Autosave(int step);
  void WriteCursor(TrainerSession* out) const;

  const RLCutOptions& options;
  const size_t num_threads;
  ThreadPool& workers;
  PartitionState* const state;
  const Graph& graph;
  const int num_dcs;
  TrainerSession* const session;

  TrainResult result;
  WallTimer total_timer;
  // Set once Start prepared a run. The early exits (nothing to train, a
  // finished session) skip the residual push and the session cursor.
  bool started = false;
  // First step the next Train call on this session would run: pauses
  // and pre-step exits leave it at the unexecuted step, end-of-step
  // exits advance past the executed one.
  int next_step = 0;
  bool paused = false;
  int64_t visits_remaining = 0;
  Objective last_objective;
  // Whether this step runs the sampled RLCUT_DEBUG_INVARIANTS audits,
  // decided once per step.
  bool audit = false;

  // Sampling.
  std::vector<VertexId> eligible;
  std::vector<VertexId> hub_order;
  std::vector<uint8_t> taken;
  std::vector<VertexId> agents;

  // Automata, the team members (plus one arena for the caller's
  // re-scores, which share member 0's scratch), and the one
  // commit-phase PRNG stream. No random state belongs to a thread, so a
  // session paused on a 16-core host resumes bit-identically on a
  // 4-core one.
  std::unique_ptr<AutomatonPool> local_pool;
  AutomatonPool* automata = nullptr;
  std::vector<TeamMember> members;
  MoveArena rescue_arena;
  Rng rng;

  // Eq. 10 weights of the current step.
  double over_budget = 0;
  double cw = 0;
  double tw = 1;
  double cost_pressure = 0;

  // The current batch, agents[batch_begin, batch_begin + batch_len), and
  // its proposed migrations. A slot is an agent's position in the batch.
  size_t batch_begin = 0;
  size_t batch_len = 0;
  Objective batch_objective;
  std::vector<Proposal> proposals;

  // Scoring. Chunk c is the slots [chunk_start[c], chunk_start[c + 1]);
  // its claimant writes `claimed`, the caller's re-score writes
  // `rescored`, and scored_by[c] records which finished first. `cancel`
  // stops the attempts still running once every chunk has a result.
  std::vector<size_t> chunk_start;
  SlotScores claimed;
  SlotScores rescored;
  std::vector<std::atomic<uint8_t>> scored_by;
  std::atomic<bool> cancel{false};

  // The replica sink, if attached: it receives the starting snapshot,
  // then the committed moves as one delta every kSyncEveryBatches
  // batches, each chained on the sink's own version. Moves are buffered
  // only while a sink is attached. It is write-only: a slow, degraded,
  // or failed sink never changes what the trainer does, only what
  // TrainResult::replica_status reports.
  PlanDelta sync_delta;
  int batches_since_sync = 0;
  ReplicaSink* sink;
  Status sink_status;
  bool sink_degraded = false;

  obs::Counter* const total_steps = TrainerCounter("trainer.steps");
  obs::Counter* const total_visits = TrainerCounter("trainer.agent_visits");
  obs::Counter* const total_migrations = TrainerCounter("trainer.migrations");
  obs::Counter* const total_rollbacks = TrainerCounter("trainer.rollbacks");
  obs::Counter* const chunk_inline_runs =
      TrainerCounter("trainer.chunk_inline_runs");
  obs::Counter* const masked_pool_errors =
      TrainerCounter("trainer.masked_pool_errors");
  obs::Counter* const autosaves =
      TrainerCounter("trainer.checkpoint_autosaves");
  obs::Counter* const autosave_failures =
      TrainerCounter("trainer.checkpoint_autosave_failures");
  obs::Histogram* const score_stage_seconds =
      StageHistogram("trainer.stage.score_seconds");
  obs::Histogram* const commit_stage_seconds =
      StageHistogram("trainer.stage.commit_seconds");
  obs::Histogram* const migrate_stage_seconds =
      StageHistogram("trainer.stage.migrate_seconds");
};

// Begins the sink and prepares the run. Returns false when there is
// nothing to train: no eligible agents, fewer than two DCs, or a
// resumed session that already finished.
bool TrainLoop::Start(AutomatonPool* pool) {
  // Every attached sink starts from the plan as it stands, also when
  // nothing will train: Finish flushes it on every exit, so
  // replica_status always says whether the far side holds the plan.
  if (sink != nullptr) {
    sink_status = sink->Begin(PlanSnapshot{0, num_dcs, state->masters()});
    if (!sink_status.ok()) sink = nullptr;
  }
  if (eligible.empty() || num_dcs < 2) {
    result.converged = true;
    return false;
  }
  const bool resuming = session != nullptr && session->started;
  if (resuming && session->finished) {
    // The run already concluded; the uninterrupted run would not have
    // trained past this point, so continuing would diverge from it.
    result.steps = session->history;
    result.converged = true;
    return false;
  }

  // Each agent acts at most once per step: Migrate commits a slot from
  // the collection scoring kept for it, which would be stale at a second
  // slot of a vertex that moved at its first.
  if (!std::is_sorted(eligible.begin(), eligible.end())) {
    std::sort(eligible.begin(), eligible.end());
  }
  eligible.erase(std::unique(eligible.begin(), eligible.end()),
                 eligible.end());
  // Sampling order: ascending degree (Sec. V-C: low-degree agents
  // contribute most per unit of training time). The descending order is
  // kept only for the Fig. 9 ablation.
  SortAgentsByDegree(graph, options.sample_highest_degree_first, &eligible);

  // Hub ordering for the importance-sampling extension: agents with the
  // largest apply-message volume first (see RLCutOptions).
  if (options.hub_slot_fraction > 0) {
    hub_order = eligible;
    std::stable_sort(hub_order.begin(), hub_order.end(),
                     [this](VertexId a, VertexId b) {
                       const double va = state->ApplyBytes(a);
                       const double vb = state->ApplyBytes(b);
                       if (va != vb) return va > vb;
                       return graph.Degree(a) > graph.Degree(b);
                     });
  }

  if (pool == nullptr) {
    local_pool = std::make_unique<AutomatonPool>(graph.num_vertices(),
                                                 num_dcs, options);
    pool = local_pool.get();
  }
  automata = pool;

  // A resumed session reinstates the PRNG state so a continued run
  // draws the exact sequence the uninterrupted run would have. Sessions
  // saved with several streams (one per shard, by older builds) resume
  // from the first: the deterministic modes never draw, and callers
  // with file-sourced kProbability sessions gate on ValidateResume().
  if (resuming && !session->rng_states.empty()) {
    RLCUT_CHECK(options.selection != ActionSelection::kProbability ||
                session->rng_states.size() == 1)
        << "a kProbability session resumes from exactly one PRNG stream";
    rng.SetState(session->rng_states.front());
  }

  // Telemetry of steps completed before this call (resumed sessions):
  // the Eq. 14 sampler reads the full history, and TrainResult::steps
  // spans the whole run.
  if (resuming) {
    next_step = session->next_step;
    visits_remaining = session->visits_remaining;
    result.steps = session->history;
  } else {
    visits_remaining = options.agent_visit_budget;
  }
  const size_t batch_size = static_cast<size_t>(options.batch_size);
  proposals.reserve(batch_size);
  for (SlotScores* buf : {&claimed, &rescored}) {
    buf->scores.resize(batch_size * static_cast<size_t>(num_dcs));
    buf->rho.resize(batch_size);
    buf->objectives.resize(batch_size * static_cast<size_t>(num_dcs));
    buf->kept.resize(batch_size);
  }
  taken.assign(graph.num_vertices(), 0);
  last_objective = state->CurrentObjective();
  started = true;
  return true;
}

// Runs training step `step`; returns false once training stops (visit
// or time budget spent, or converged).
bool TrainLoop::Step(int step) {
  obs::TraceSpan step_span("trainer/step", "trainer");
  step_span.AddArg("step", step);
  // steps=A-B fault triggers scope themselves to this window.
  fault::SetStepContext(step);
  audit = check::ShouldCheckInvariantsAtStep(step);
  const double sr = SampleRate(step);
  if (sr <= 0) {
    result.hit_time_budget = true;
    return false;
  }
  WallTimer step_timer;
  Sample(sr);

  // Eq. 10 weights for this step. The cost term engages only while
  // the budget is violated; tw shifts toward cost as training ages.
  const double c_l = state->CurrentObjective().cost_dollars;
  over_budget = options.budget > 0 ? Delta(c_l - options.budget) : 0.0;
  cw = static_cast<double>(step) / static_cast<double>(options.max_steps);
  tw = 1.0 - cw * over_budget;
  // Budget-pressure extension: quadratic ramp as cost approaches B.
  cost_pressure = (options.budget_pressure && options.budget > 0)
                      ? std::pow(std::min(1.0, c_l / options.budget), 2.0)
                      : 0.0;

  step_span.AddArg("sample_rate", sr);
  step_span.AddArg("num_agents", static_cast<double>(agents.size()));
  StepStats stats;
  stats.step = step;
  stats.sample_rate = sr;
  stats.num_agents = agents.size();
  const size_t batch_size = static_cast<size_t>(options.batch_size);
  for (batch_begin = 0; batch_begin < agents.size();
       batch_begin += batch_size) {
    batch_len = std::min(batch_size, agents.size() - batch_begin);
    RunBatch(step, &stats);
  }
  return EndStep(step, step_timer, &stats);
}

// The step's sampling rate: Eq. 14 (or the fixed rate), capped by the
// deterministic visit budget. <= 0 once either budget is spent.
double TrainLoop::SampleRate(int step) const {
  const double sr = SampleRateForStep(options, step, result.steps);
  if (options.agent_visit_budget <= 0) return sr;
  if (visits_remaining <= 0) return 0;
  // Deterministic analog of Eq. 14: spread the remaining visit budget
  // evenly over the remaining steps.
  const double per_step = static_cast<double>(visits_remaining) /
                          (options.max_steps - step);
  const double per_agent = per_step / static_cast<double>(eligible.size());
  return std::min(sr, std::clamp(per_agent, options.min_sample_rate, 1.0));
}

// Sampled agent set: a reserved share of hub agents plus the
// lowest-degree prefix (Sec. V-C + the hub-slot extension).
void TrainLoop::Sample(double sr) {
  const uint64_t num_agents = std::max<uint64_t>(
      1, static_cast<uint64_t>(sr * static_cast<double>(eligible.size())));
  obs::TraceSpan sample_span("trainer/stage/sample", "trainer");
  sample_span.AddArg("sample_rate", sr);
  sample_span.AddArg("target_agents", static_cast<double>(num_agents));
  agents.clear();
  const size_t hub_count = std::min<size_t>(
      static_cast<size_t>(options.hub_slot_fraction *
                          static_cast<double>(num_agents)),
      hub_order.size());
  for (size_t i = 0; i < hub_count; ++i) {
    agents.push_back(hub_order[i]);
    taken[hub_order[i]] = 1;
  }
  for (VertexId v : eligible) {
    if (agents.size() >= num_agents) break;
    if (!taken[v]) agents.push_back(v);
  }
  for (size_t i = 0; i < hub_count; ++i) taken[hub_order[i]] = 0;
}

// One batch: agents score against the batch-start state in parallel,
// then commit and migrate sequentially (the batching of Sec. V-A).
void TrainLoop::RunBatch(int step, StepStats* stats) {
  obs::TraceSpan batch_span("trainer/batch", "trainer");
  batch_span.AddArg("agents", static_cast<double>(batch_len));
  batch_objective = state->CurrentObjective();
  Score();
  Commit(step);
  // The migrate span stays open across the push that ends every
  // kSyncEveryBatches-th batch, so it encloses the sink's round trip.
  obs::TraceSpan migrate_span("trainer/stage/migrate", "trainer");
  Migrate(stats);
  if (sink != nullptr && ++batches_since_sync >= kSyncEveryBatches) {
    PushToSink();
  }
}

// Splits the batch's slots into contiguous chunks for the team. With
// straggler mitigation (Sec. V-B, the degree-balanced agent-to-thread
// assignment) each chunk carries an equal share of the batch's degree+1
// mass; without it (the Exp#3 ablation) an equal slot count. The split
// only moves wall clock: every chunk scores against the same
// batch-start state, and Commit runs in slot order.
void TrainLoop::SplitChunks() {
  const size_t n = std::min(batch_len, scored_by.size());
  chunk_start.assign(1, 0);
  if (!options.straggler_mitigation) {
    for (size_t c = 1; c <= n; ++c) chunk_start.push_back(batch_len * c / n);
    return;
  }
  const auto mass = [this](size_t slot) -> uint64_t {
    return graph.Degree(agents[batch_begin + slot]) + 1;
  };
  uint64_t total = 0;
  for (size_t slot = 0; slot < batch_len; ++slot) total += mass(slot);
  uint64_t prefix = 0;
  size_t slot = 0;
  for (size_t c = 1; c < n; ++c) {
    while (slot < batch_len && prefix < total * c / n) prefix += mass(slot++);
    chunk_start.push_back(slot);
  }
  chunk_start.push_back(batch_len);
}

// Pure scoring (step 1) for every agent of the batch, on the team. All
// side effects (automaton updates, action selection, PRNG draws) happen
// in Commit.
void TrainLoop::Score() {
  obs::TraceSpan score_span("trainer/stage/score", "trainer");
  WallTimer stage_timer;
  SplitChunks();
  const size_t num_chunks = chunk_start.size() - 1;
  for (size_t c = 0; c < num_chunks; ++c) {
    scored_by[c].store(kUnscored, std::memory_order_relaxed);
  }
  for (TeamMember& m : members) m.arena.Clear();
  rescue_arena.Clear();
  workers.RunTeam(
      num_chunks,
      [this](size_t c, size_t member) { ScoreClaimed(c, member); },
      [this] { Rescore(); });
  cancel.store(false, std::memory_order_relaxed);
  if (workers.TakeError() != nullptr) masked_pool_errors->Increment();
  if (score_stage_seconds != nullptr) {
    score_stage_seconds->Observe(stage_timer.ElapsedSeconds());
  }
}

// Chunk c on the member that claimed it. The trainer.chunk_* fault sites
// fire on helpers only: the caller's own chunks always complete.
void TrainLoop::ScoreClaimed(size_t c, size_t member) {
  if (member != 0) {
    if (fault::ShouldFire("trainer.chunk_abandon")) return;
    int64_t stall_ms = 0;
    if (fault::ShouldFire("trainer.chunk_stall", &stall_ms)) {
      fault::CancellableSleepMs(stall_ms > 0 ? stall_ms : 30, &cancel);
    }
  }
  TeamMember& m = members[member];
  if (ScoreChunk(c, &m.scratch, &m.arena, &claimed)) {
    uint8_t unscored = kUnscored;
    scored_by[c].compare_exchange_strong(unscored, kScoredByClaimant);
  }
}

// The straggler rescue, run by the caller once every chunk is claimed:
// it re-scores each chunk whose claimant has not finished (lost to a
// failing helper, abandoned, stalled or just slow), and the first
// finisher wins. Then it cancels what is still running, and RunTeam
// waits for those helpers to leave before Commit mutates the state.
void TrainLoop::Rescore() {
  for (size_t c = 0; c + 1 < chunk_start.size(); ++c) {
    if (scored_by[c].load() != kUnscored) continue;
    chunk_inline_runs->Increment();
    if (ScoreChunk(c, &members[0].scratch, &rescue_arena, &rescored)) {
      uint8_t unscored = kUnscored;
      scored_by[c].compare_exchange_strong(unscored, kRescored);
    }
  }
  cancel.store(true, std::memory_order_relaxed);
}

// Scores every DC (Eq. 10) for chunk c's slots into `out`, keeping each
// slot's collection in `arena`; false if the attempt stopped early
// because the other attempt at the chunk won or the batch was
// cancelled. Reads only the frozen batch-start state.
bool TrainLoop::ScoreChunk(size_t c, EvalScratch* es, MoveArena* arena,
                           SlotScores* out) const {
  const Objective& current = batch_objective;
  for (size_t slot = chunk_start[c]; slot < chunk_start[c + 1]; ++slot) {
    if (scored_by[c].load(std::memory_order_relaxed) != kUnscored ||
        cancel.load(std::memory_order_relaxed)) {
      return false;
    }
    const VertexId v = agents[batch_begin + slot];
    // Score every DC from one batched what-if pass — EvaluateMoveAll
    // collects the affected set and the destination-independent base
    // deltas once instead of per DC. Seed rho at the current master
    // (whose score is exactly 0) so that ties on a plateau mean "don't
    // move".
    DcId rho = state->master(v);
    double best_score = 0;
    double* scores = out->scores.data() + slot * static_cast<size_t>(num_dcs);
    Objective* evals =
        out->objectives.data() + slot * static_cast<size_t>(num_dcs);
    out->kept[slot] = state->EvaluateMoveAll(v, es, evals, arena);
    for (DcId r = 0; r < num_dcs; ++r) {
      const Objective& moved = (r == state->master(v)) ? current : evals[r];
      const double score = ObjectiveScore(current, moved, tw, cw, over_budget,
                                          options.smooth_weight, cost_pressure,
                                          options.budget);
      scores[r] = score;
      if (score > best_score) {
        best_score = score;
        rho = r;
      }
    }
    out->rho[slot] = rho;
  }
  return true;
}

// Sequential commit: steps 2-4 for every agent in slot order, drawing
// from the one PRNG stream, so the commit sequence is the same however
// the chunks were scheduled and whatever the thread count. Each action
// that leaves its agent's master becomes a proposal for Migrate, which
// reads the chunk winner's kept objectives and collection.
void TrainLoop::Commit(int step) {
  obs::TraceSpan commit_span("trainer/stage/commit", "trainer");
  WallTimer stage_timer;
  proposals.clear();
  for (size_t c = 0; c + 1 < chunk_start.size(); ++c) {
    const SlotScores& buf = scored_by[c].load(std::memory_order_relaxed) ==
                                    kRescored
                                ? rescored
                                : claimed;
    for (size_t slot = chunk_start[c]; slot < chunk_start[c + 1]; ++slot) {
      const VertexId v = agents[batch_begin + slot];
      const double* scores =
          buf.scores.data() + slot * static_cast<size_t>(num_dcs);
      // Steps 2+3: reinforcement signal for rho, probability update.
      automata->UpdateSignals(v, buf.rho[slot]);
      // Step 4: UCB action selection; record the normalized score of
      // the selected action as its observed reward.
      const DcId action = automata->SelectAction(v, step + 1, &rng);
      double best_score = 0;
      double min_score = 0;
      for (DcId r = 0; r < num_dcs; ++r) {
        best_score = std::max(best_score, scores[r]);
        min_score = std::min(min_score, scores[r]);
      }
      const double span = best_score - min_score;
      const double normalized =
          span > 0 ? (scores[action] - min_score) / span : 1.0;
      automata->RecordSelection(v, action, normalized);
      if (action != state->master(v)) {
        proposals.push_back(
            {slot, action, &buf.kept[slot],
             &buf.objectives[slot * static_cast<size_t>(num_dcs) + action]});
      }
    }
  }
  if (commit_stage_seconds != nullptr) {
    commit_stage_seconds->Observe(stage_timer.ElapsedSeconds());
  }
}

// Step 5: migration with rollback, in batch order. Until the batch's
// first accepted move the live state is the batch-start state that
// scoring priced, so a proposal's objective is the one scoring kept and
// nothing is evaluated; after it, the proposal's kept collection is
// folded against the live state, prefetching the next one's rows. An
// accepted move commits from the same collection.
void TrainLoop::Migrate(StepStats* stats) {
  WallTimer migrate_timer;
  bool moved = false;
  for (size_t i = 0; i < proposals.size(); ++i) {
    const Proposal& p = proposals[i];
    const KeptMove& move = *p.move;
    const Objective before = state->CurrentObjective();
    // Evaluate-first acceptance: a rejected move costs at most one fold
    // instead of a commit plus an exact rollback, and most attempted
    // moves are rejected once training settles.
    const KeptMove* next = i + 1 < proposals.size() ? proposals[i + 1].move
                                                    : nullptr;
    const Objective after =
        moved ? state->EvaluateKeptMove(move, p.to, &members[0].scratch,
                                        next)
              : *p.priced;
    if (audit) AuditReuse(p, after, moved, stats->step);
    const double budget_delta =
        options.budget > 0 ? Delta(before.cost_dollars - options.budget) : 0.0;
    // Hard feasibility filter (Eq. 7): never accept a move that lands
    // above budget while increasing cost. Starting from a feasible state
    // this keeps every intermediate state feasible.
    const bool breaks_budget =
        options.budget > 0 && after.cost_dollars > options.budget &&
        after.cost_dollars > before.cost_dollars;
    if (breaks_budget ||
        ObjectiveScore(before, after, tw, cw, budget_delta,
                       options.smooth_weight, cost_pressure,
                       options.budget) < 0) {
      ++stats->rollbacks;
    } else {
      // An attached sink receives the committed move at the next push.
      if (sink != nullptr) {
        sync_delta.moves.push_back(PlanMove{move.v, move.from, p.to});
      }
      state->CommitKeptMove(move, p.to);
      moved = true;
      ++stats->migrations;
    }
  }
  if (migrate_stage_seconds != nullptr) {
    migrate_stage_seconds->Observe(migrate_timer.ElapsedSeconds());
  }
}

// The sampled audit of Migrate's reuse: the objective it priced a
// proposal at, kept from scoring or folded from the kept collection,
// must equal a fresh EvaluateMove bit for bit.
void TrainLoop::AuditReuse(const Proposal& p, const Objective& after,
                           bool folded, int step) {
  const VertexId v = p.move->v;
  const Objective fresh =
      state->EvaluateMove(v, p.to, &members[0].scratch);
  if (after.transfer_seconds == fresh.transfer_seconds &&
      after.cost_dollars == fresh.cost_dollars &&
      after.smooth_seconds == fresh.smooth_seconds) {
    return;
  }
  RLCUT_CHECK(false) << "trainer step " << step << " slot " << p.slot
                     << " vertex " << v << " -> DC " << p.to << ": the "
                     << (folded ? "kept-collection fold"
                                : "objective kept from scoring")
                     << " differs from a fresh EvaluateMove"
                     << std::setprecision(17) << " (transfer "
                     << after.transfer_seconds << " vs "
                     << fresh.transfer_seconds << ", cost "
                     << after.cost_dollars << " vs " << fresh.cost_dollars
                     << ", smooth " << after.smooth_seconds << " vs "
                     << fresh.smooth_seconds << "); repro: retrain with "
                     << "RLCUT_DEBUG_INVARIANTS=1, seed=" << options.seed
                     << ", batch_size=" << options.batch_size
                     << ", selection=" << static_cast<int>(options.selection)
                     << " and stop_after_step=" << step + 1;
}

// Hands the pending delta to the sink, chained on the sink's version
// (docs/distributed.md).
void TrainLoop::PushToSink() {
  sync_delta.base_version = sink->version();
  const Status pushed = sink->PushDelta(sync_delta);
  if (!pushed.ok()) {
    // A push the sink's own mirror rejects is unrecoverable (the network
    // path degrades instead of erroring); stop feeding it and surface
    // the failure through the result.
    if (sink_status.ok()) sink_status = pushed;
    sink = nullptr;
  } else {
    sink_degraded = sink_degraded || sink->degraded();
  }
  sync_delta.moves.clear();
  batches_since_sync = 0;
}

// Telemetry, the sampled invariant audit, autosave and convergence of
// a completed step; returns false when training stops after it.
bool TrainLoop::EndStep(int step, const WallTimer& step_timer,
                        StepStats* stats) {
  visits_remaining -= static_cast<int64_t>(agents.size());
  next_step = step + 1;

  // Sampled end-of-step audit (RLCUT_DEBUG_INVARIANTS=N): the state
  // just absorbed a batch of moves and rollbacks, so incremental
  // corruption would surface here first.
  if (audit) {
    RLCUT_CHECK(state->CheckInvariants())
        << "partition state invariants violated after trainer step "
        << step;
  }

  const Objective objective = state->CurrentObjective();
  stats->seconds = step_timer.ElapsedSeconds();
  stats->transfer_seconds = objective.transfer_seconds;
  stats->cost_dollars = objective.cost_dollars;
  result.steps.push_back(*stats);
  total_steps->Increment();
  total_visits->Increment(agents.size());
  total_migrations->Increment(stats->migrations);
  total_rollbacks->Increment(stats->rollbacks);

  if (options.checkpoint_every_steps > 0 &&
      !options.checkpoint_path.empty() &&
      next_step % options.checkpoint_every_steps == 0) {
    Autosave(step);
  }

  // Convergence: negligible relative improvement while feasible.
  const bool feasible =
      options.budget <= 0 || objective.cost_dollars <= options.budget;
  const double rel_improvement =
      last_objective.transfer_seconds > 0
          ? (last_objective.transfer_seconds - objective.transfer_seconds) /
                last_objective.transfer_seconds
          : 0.0;
  last_objective = objective;
  if (feasible && step > 0 &&
      std::fabs(rel_improvement) < options.convergence_epsilon) {
    result.converged = true;
    return false;
  }
  if (options.t_opt_seconds > 0 &&
      total_timer.ElapsedSeconds() >= options.t_opt_seconds) {
    result.hit_time_budget = true;
    return false;
  }
  return true;
}

// Periodic auto-checkpoint (crash tolerance): a rotating
// crash-consistent snapshot of the run every N completed steps.
// Resuming it continues bit-identically, so a crash costs at most N
// steps of work. Save failures degrade to telemetry + a warning; they
// never take down the training run.
void TrainLoop::Autosave(int step) {
  TrainerSession snapshot;
  WriteCursor(&snapshot);
  const TrainerCheckpoint checkpoint =
      CaptureCheckpoint(*state, *automata, snapshot, options.seed);
  const Status saved =
      SaveTrainerCheckpointRotating(checkpoint, options.checkpoint_path);
  if (!saved.ok()) {
    autosave_failures->Increment();
    RLCUT_LOG(kWarning) << "auto-checkpoint failed after step " << step
                        << ": " << saved.ToString();
  } else {
    autosaves->Increment();
  }
}

// The resumable cursor of the run so far (paused and finished stay as
// the caller set them).
void TrainLoop::WriteCursor(TrainerSession* out) const {
  out->started = true;
  out->next_step = next_step;
  out->visits_remaining = visits_remaining;
  out->history = result.steps;
  out->rng_states.assign(1, rng.State());
}

// Every exit of Train ends here: the residual push, the sink's flush,
// and the session cursor.
TrainResult TrainLoop::Finish() {
  fault::SetStepContext(-1);
  if (sink != nullptr && !sync_delta.moves.empty()) PushToSink();
  if (sink != nullptr) {
    // The fail-closed barrier: the sink must confirm the far side holds
    // the final plan, or report why it cannot.
    const Status flushed = sink->Flush();
    if (sink_status.ok()) sink_status = flushed;
    sink_degraded = sink_degraded || sink->degraded();
  }
  result.replica_status = sink_status;
  result.replica_degraded = sink_degraded;
  if (started && session != nullptr) {
    WriteCursor(session);
    session->paused = paused;
    session->finished = !paused;
  }
  result.final_objective = state->CurrentObjective();
  result.overhead_seconds = total_timer.ElapsedSeconds();
  return std::move(result);
}

}  // namespace

void SortAgentsByDegree(const Graph& graph, bool descending,
                        std::vector<VertexId>* agents) {
  std::vector<VertexId>& ids = *agents;
  // The counting sort is stable, so id-ordered input keeps equal-degree
  // agents in id order.
  if (!std::is_sorted(ids.begin(), ids.end())) {
    std::sort(ids.begin(), ids.end());
  }
  std::vector<uint32_t> degree(ids.size());
  uint32_t max_degree = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    degree[i] = graph.Degree(ids[i]);
    max_degree = std::max(max_degree, degree[i]);
  }
  // Bucket k holds degree k (ascending) or max_degree - k (descending).
  std::vector<size_t> start(static_cast<size_t>(max_degree) + 2, 0);
  for (uint32_t d : degree) ++start[(descending ? max_degree - d : d) + 1];
  for (size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  std::vector<VertexId> sorted(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint32_t d = degree[i];
    sorted[start[descending ? max_degree - d : d]++] = ids[i];
  }
  ids = std::move(sorted);
}

Status ValidateRLCutOptions(const RLCutOptions& options) {
  if (options.max_steps <= 0) {
    return Status::InvalidArgument("max_steps must be positive, got " +
                                   std::to_string(options.max_steps));
  }
  if (options.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive, got " +
                                   std::to_string(options.batch_size));
  }
  if (options.num_threads < 0 || options.num_threads > kMaxTrainerThreads) {
    return Status::InvalidArgument(
        "num_threads must be in [0, " + std::to_string(kMaxTrainerThreads) +
        "] (0 = hardware concurrency), got " +
        std::to_string(options.num_threads));
  }
  if (options.checkpoint_every_steps < 0) {
    return Status::InvalidArgument(
        "checkpoint_every_steps must be >= 0 (0 = disabled), got " +
        std::to_string(options.checkpoint_every_steps));
  }
  if (options.checkpoint_every_steps > 0 && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every_steps > 0 requires a checkpoint_path");
  }
  return Status::Ok();
}

Result<std::unique_ptr<RLCutTrainer>> RLCutTrainer::Create(
    const RLCutOptions& options) {
  if (Status valid = ValidateRLCutOptions(options); !valid.ok()) {
    return valid;
  }
  return std::make_unique<RLCutTrainer>(options);
}

RLCutTrainer::RLCutTrainer(const RLCutOptions& options) : options_(options) {
  // Clamp instead of crashing: callers holding options from external
  // input validate through Create()/ValidateRLCutOptions() first and
  // get a Status; programmatic callers get nearest-legal behavior.
  options_.max_steps = std::max(1, options_.max_steps);
  options_.batch_size = std::max(1, options_.batch_size);
  options_.num_threads =
      std::clamp(options_.num_threads, 0, kMaxTrainerThreads);
  num_threads_ = options_.num_threads > 0
                     ? static_cast<size_t>(options_.num_threads)
                     : DefaultThreadCount();
  pool_ = std::make_unique<ThreadPool>(num_threads_);
}

RLCutTrainer::~RLCutTrainer() = default;

Status RLCutTrainer::ValidateResume(const TrainerSession& session) const {
  // Only kProbability draws from the stream, so only it depends on which
  // stream a session continues from.
  if (session.started && options_.selection == ActionSelection::kProbability &&
      session.rng_states.size() > 1) {
    return Status::FailedPrecondition(
        "cannot resume: the session was saved with " +
        std::to_string(session.rng_states.size()) +
        " PRNG streams (a sharded run), but kProbability selection "
        "continues exactly one stream; restart the run from the beginning "
        "(sessions of the deterministic selection modes resume from any "
        "stream count)");
  }
  return Status::Ok();
}

TrainResult RLCutTrainer::Train(PartitionState* state) {
  std::vector<VertexId> all(state->graph().num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  return Train(state, std::move(all));
}

TrainResult RLCutTrainer::Train(PartitionState* state,
                                std::vector<VertexId> eligible) {
  return Train(state, std::move(eligible), nullptr);
}

TrainResult RLCutTrainer::Train(PartitionState* state,
                                std::vector<VertexId> eligible,
                                AutomatonPool* pool) {
  return Train(state, std::move(eligible), pool, nullptr);
}

TrainResult RLCutTrainer::Train(PartitionState* state,
                                std::vector<VertexId> eligible,
                                AutomatonPool* pool,
                                TrainerSession* session) {
  RLCUT_CHECK(state != nullptr);
  obs::TraceSpan train_span("trainer/train", "trainer");
  train_span.AddArg("eligible", static_cast<double>(eligible.size()));
  TrainLoop loop(*this, pool_.get(), replica_sink_, state, std::move(eligible),
                 session);
  if (loop.Start(pool)) {
    for (int step = loop.next_step; step < options_.max_steps; ++step) {
      if (session != nullptr && session->stop_after_step >= 0 &&
          step >= session->stop_after_step) {
        loop.paused = true;
        break;
      }
      if (!loop.Step(step)) break;
    }
  }
  return loop.Finish();
}

}  // namespace rlcut
