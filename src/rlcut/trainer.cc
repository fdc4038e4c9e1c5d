#include "rlcut/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
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
#include "rlcut/shard.h"

namespace rlcut {
namespace {

// Batches between two delta syncs of the audit replica and the attached
// sink (docs/sharding.md). Larger values batch more moves per sync
// message; the committed trajectory is unaffected.
constexpr int kSyncEveryBatches = 4;

// Scoring deadline of one batch while a fault schedule is armed:
// injected stalls and dropped pool tasks must resolve through
// re-dispatch, not by waiting them out. Unarmed runs have no deadline.
constexpr double kArmedBatchDeadlineSeconds = 0.05;

// Speculative re-dispatch rounds before the coordinator scores the
// remaining shards inline (docs/robustness.md).
constexpr int kMaxRedispatchRounds = 3;

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

// One attempt at scoring one shard's slots. The scoring stage is pure
// (reads the frozen batch-start state, writes only this buffer), so a
// shard may be scored several times concurrently — by the original
// dispatch, a speculative re-dispatch after a deadline, or inline — and
// any completed attempt is a valid winner. Re-dispatched attempts own
// their EvalScratch; the first round and the inline run borrow the
// trainer's per-shard scratch.
struct ChunkScores {
  std::vector<double> scores;  // slot-major: [i * num_dcs + r]
  std::vector<DcId> rho;
  std::unique_ptr<EvalScratch> owned_scratch;
};

// Coordination for one batch's dispatched scoring: attempts claim a
// winner and report completion; the coordinator waits with a deadline
// and re-dispatches stragglers.
struct BatchSync {
  std::mutex mu;
  std::condition_variable cv;
  size_t claimed = 0;  // shards with a winning attempt
  size_t pending = 0;  // dispatched attempts not yet finished
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
        num_shards(trainer.num_shards()),
        num_threads(trainer.num_threads()),
        workers(*workers),
        state(state),
        graph(state->graph()),
        num_dcs(state->num_dcs()),
        session(session),
        eligible(std::move(eligible)),
        scratch(num_shards),
        shard_plan(num_shards),
        shard_loads(num_shards, 0),
        round0(num_shards),
        sink(sink) {}

  bool Start(AutomatonPool* pool);
  bool Step(int step);
  TrainResult Finish();

  // Stages of a step.
  double SampleRate(int step) const;
  void Sample(double sr);
  void RunBatch(int step, StepStats* stats);
  void AssignShards();
  void Score();
  void Dispatch(double deadline_seconds);
  void DispatchShard(size_t s, ChunkScores* buf, EvalScratch* es);
  bool ScoreChunk(size_t s, EvalScratch* es, ChunkScores* out,
                  bool dispatched) const;
  void Commit(int step);
  void Migrate(StepStats* stats);
  void SyncReplica();
  bool EndStep(int step, const WallTimer& step_timer, StepStats* stats);
  void Autosave(int step);
  void WriteCursor(TrainerSession* out) const;

  const RLCutOptions& options;
  const size_t num_shards;
  const size_t num_threads;
  ThreadPool& workers;
  PartitionState* const state;
  const Graph& graph;
  const int num_dcs;
  TrainerSession* const session;

  TrainResult result;
  WallTimer total_timer;
  // Set once Start prepared a run. The early exits (nothing to train, a
  // finished session) skip the residual sync, the replica audit and
  // the session cursor.
  bool started = false;
  // First step the next Train call on this session would run: pauses
  // and pre-step exits leave it at the unexecuted step, end-of-step
  // exits advance past the executed one.
  int next_step = 0;
  bool paused = false;
  int64_t visits_remaining = 0;
  Objective last_objective;

  // Sampling.
  std::vector<VertexId> eligible;
  std::vector<VertexId> hub_order;
  std::vector<uint8_t> taken;
  std::vector<VertexId> agents;

  // Automata, ownership and per-shard resources. RNG streams are keyed
  // by logical shard — a checkpoint property — never by worker thread,
  // so a session paused on a 16-core host resumes bit-identically on a
  // 4-core one.
  std::unique_ptr<AutomatonPool> local_pool;
  AutomatonPool* automata = nullptr;
  ShardLayout layout;
  std::vector<EvalScratch> scratch;
  std::vector<Rng> rngs;

  // Eq. 10 weights of the current step.
  double over_budget = 0;
  double cw = 0;
  double tw = 1;
  double cost_pressure = 0;

  // The current batch, agents[batch_begin, batch_begin + batch_len), and
  // its decisions indexed by position within the batch. shard_plan[s]
  // lists the slots owned — scored and committed — by shard s, in
  // ascending slot order; shard s's commit-phase RNG is rngs[s], so
  // ownership also fixes which PRNG stream each agent draws from.
  // active_shards lists the shards with work, in dispatch order.
  size_t batch_begin = 0;
  size_t batch_len = 0;
  Objective batch_objective;
  std::vector<DcId> chosen;
  std::vector<std::vector<size_t>> shard_plan;
  std::vector<size_t> active_shards;
  std::vector<uint64_t> shard_loads;

  // Scoring attempts: one first-round (and inline) buffer per shard,
  // plus the buffers of speculative re-dispatch attempts.
  std::vector<ChunkScores> round0;
  std::vector<std::unique_ptr<ChunkScores>> extra_attempts;
  std::vector<ChunkScores*> winner;  // guarded by sync.mu while dispatched
  BatchSync sync;
  std::atomic<bool> cancel{false};

  // The audit replica. Scoring reads the authoritative PartitionState;
  // this versioned replica only receives the committed moves as one
  // delta every kSyncEveryBatches batches, sources the delta stream an
  // attached sink ships, and is checked against the PartitionState
  // after the last sync. Apply is O(|delta|), so a sync costs its
  // moves, not a pass over |V|.
  PlanReplica replica;
  PlanDelta sync_delta;
  int batches_since_sync = 0;
  // The external sink (if attached) receives the starting snapshot and
  // then exactly the deltas the audit replica applies, in order. It is
  // write-only: a slow, degraded, or failed sink never changes what the
  // trainer does, only what TrainResult::replica_status reports.
  ReplicaSink* sink;
  Status sink_status;
  bool sink_degraded = false;

  obs::Counter* const total_steps = TrainerCounter("trainer.steps");
  obs::Counter* const total_visits = TrainerCounter("trainer.agent_visits");
  obs::Counter* const total_migrations = TrainerCounter("trainer.migrations");
  obs::Counter* const total_rollbacks = TrainerCounter("trainer.rollbacks");
  obs::Counter* const shard_syncs = TrainerCounter("trainer.shard_syncs");
  obs::Counter* const shard_sync_moves =
      TrainerCounter("trainer.shard_sync_moves");
  obs::Counter* const chunk_redispatches =
      TrainerCounter("trainer.chunk_redispatches");
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

  // Sampling order: ascending degree (Sec. V-C: low-degree agents
  // contribute most per unit of training time). The descending order is
  // kept only for the Fig. 9 ablation.
  const bool descending = options.sample_highest_degree_first;
  std::sort(eligible.begin(), eligible.end(),
            [this, descending](VertexId a, VertexId b) {
              const uint32_t da = graph.Degree(a);
              const uint32_t db = graph.Degree(b);
              if (da != db) return descending ? da > db : da < db;
              return a < b;
            });

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

  // The ownership layout: each logical shard owns a contiguous
  // degree-balanced vertex range; the owner shard scores and commits
  // its vertices (docs/sharding.md). A pure function of the graph and
  // the shard count, so every host rebuilds the same layout.
  layout = ShardLayout(graph, num_shards);

  // A resumed session reinstates the per-shard PRNG states so a
  // continued run draws the exact sequence the uninterrupted run would
  // have.
  rngs.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    rngs.emplace_back(options.seed + 0x9e37 * (s + 1));
  }
  if (resuming && !session->rng_states.empty()) {
    // Callers with file-sourced sessions (rlcut_tool --resume_from)
    // gate on ValidateResume() first and exit with a Status; reaching
    // here with a mismatch is an API-contract violation.
    RLCUT_CHECK_EQ(session->rng_states.size(), num_shards)
        << "resuming a session requires the shard count it was paused "
           "with";
    for (size_t s = 0; s < num_shards; ++s) {
      rngs[s].SetState(session->rng_states[s]);
    }
  }

  replica = PlanReplica(state->masters(), num_dcs);

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
  chosen.assign(static_cast<size_t>(options.batch_size), kNoDc);
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
  AssignShards();
  Score();
  Commit(step);
  // The migrate span stays open across the delta sync that ends a
  // batch, so it encloses the sink's push.
  obs::TraceSpan migrate_span("trainer/stage/migrate", "trainer");
  Migrate(stats);
  if (++batches_since_sync >= kSyncEveryBatches) SyncReplica();
}

// Slot-to-shard assignment (ownership protocol). Each slot belongs to
// the shard owning its vertex; the assignment is a pure function of the
// layout, never of the thread count or the load, so the committed
// trajectory is the same on any host.
void TrainLoop::AssignShards() {
  for (std::vector<size_t>& slots : shard_plan) slots.clear();
  for (size_t slot = 0; slot < batch_len; ++slot) {
    shard_plan[layout.OwnerOf(agents[batch_begin + slot])].push_back(slot);
  }
  active_shards.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    if (!shard_plan[s].empty()) active_shards.push_back(s);
  }
  if (options.straggler_mitigation && active_shards.size() > 1) {
    // Straggler mitigation, sharded form (Sec. V-B): ownership pins
    // which shard scores each agent, so instead of re-balancing the
    // work itself the heaviest shards are dispatched first and the
    // light ones fill the tail. Dispatch order only affects wall clock,
    // never results.
    for (size_t s : active_shards) {
      shard_loads[s] = 0;
      for (size_t slot : shard_plan[s]) {
        shard_loads[s] += graph.Degree(agents[batch_begin + slot]) + 1;
      }
    }
    std::stable_sort(active_shards.begin(), active_shards.end(),
                     [this](size_t a, size_t b) {
                       return shard_loads[a] > shard_loads[b];
                     });
  }
}

// Pure scoring (step 1) for every agent of the batch. All side effects
// (automaton updates, action selection, PRNG draws) happen in Commit.
void TrainLoop::Score() {
  obs::TraceSpan score_span("trainer/stage/score", "trainer");
  WallTimer stage_timer;
  winner.assign(num_shards, nullptr);
  // With one active shard — or one worker thread, where the pool adds
  // no parallelism — dispatching buys nothing, unless a fault schedule
  // is armed: the fault sites fire per dispatched shard task.
  const bool armed = fault::Armed();
  const bool dispatch = armed || (active_shards.size() > 1 && num_threads > 1);
  if (dispatch) {
    Dispatch(armed ? kArmedBatchDeadlineSeconds : 0);
    // Quiesce before the inline runs reuse first-round buffers and
    // before the commit/migration phases mutate state: an abandoned
    // attempt must not be mid-read when the masters move. Free when
    // nothing is outstanding.
    cancel.store(true, std::memory_order_relaxed);
    workers.Wait();
    cancel.store(false, std::memory_order_relaxed);
    if (workers.TakeError() != nullptr) masked_pool_errors->Increment();
  }
  // Every shard no attempt scored — all of them when nothing was
  // dispatched — runs inline with fault injection disabled, so the
  // batch always completes with a full set of scores.
  for (size_t s : active_shards) {
    if (winner[s] != nullptr) continue;
    if (dispatch) chunk_inline_runs->Increment();
    ScoreChunk(s, &scratch[s], &round0[s], /*dispatched=*/false);
    winner[s] = &round0[s];
  }
  if (score_stage_seconds != nullptr) {
    score_stage_seconds->Observe(stage_timer.ElapsedSeconds());
  }
}

// Dispatches every active shard to the pool and waits for a winner per
// shard. Without a winner by the deadline (or once every attempt has
// failed), the unscored shards are re-dispatched speculatively, with
// exponential backoff, for up to kMaxRedispatchRounds rounds.
void TrainLoop::Dispatch(double deadline_seconds) {
  extra_attempts.clear();
  {
    std::lock_guard<std::mutex> lock(sync.mu);
    sync.claimed = 0;
    sync.pending = 0;
  }
  for (size_t s : active_shards) DispatchShard(s, &round0[s], &scratch[s]);
  const size_t num_active = active_shards.size();
  std::unique_lock<std::mutex> lock(sync.mu);
  const auto settled = [this, num_active] {
    return sync.claimed == num_active || sync.pending == 0;
  };
  for (int round = 0;; ++round) {
    if (deadline_seconds > 0) {
      const std::chrono::duration<double> wait(deadline_seconds * (1 << round));
      sync.cv.wait_for(lock, wait, settled);
    } else {
      sync.cv.wait(lock, settled);
    }
    if (sync.claimed == num_active || round == kMaxRedispatchRounds) return;
    for (size_t s : active_shards) {
      if (winner[s] != nullptr) continue;
      auto attempt = std::make_unique<ChunkScores>();
      attempt->owned_scratch = std::make_unique<EvalScratch>();
      ChunkScores* raw = attempt.get();
      extra_attempts.push_back(std::move(attempt));
      chunk_redispatches->Increment();
      lock.unlock();
      DispatchShard(s, raw, raw->owned_scratch.get());
      lock.lock();
    }
  }
}

// Dispatches one attempt at shard `s`'s slots into `buf`. The first
// completed attempt per shard is the winner; late duplicates see the
// claim (or the cancel flag) and discard themselves.
void TrainLoop::DispatchShard(size_t s, ChunkScores* buf, EvalScratch* es) {
  {
    std::lock_guard<std::mutex> lock(sync.mu);
    ++sync.pending;
  }
  const bool submitted = workers.Submit([this, s, buf, es] {
    bool ok = false;
    try {
      ok = ScoreChunk(s, es, buf, /*dispatched=*/true);
    } catch (...) {
      // A failed attempt is not fatal: the deadline loop re-dispatches
      // and the inline run would surface a persistent error. Swallowing
      // keeps pending accurate.
    }
    std::lock_guard<std::mutex> lock(sync.mu);
    if (ok && winner[s] == nullptr) {
      winner[s] = buf;
      ++sync.claimed;
    }
    --sync.pending;
    sync.cv.notify_all();
  });
  if (!submitted) {
    std::lock_guard<std::mutex> lock(sync.mu);
    --sync.pending;
  }
}

// Scores every DC (Eq. 10) for shard `s`'s slots into `out`; false if
// the attempt was abandoned. Reads only the frozen batch-start state,
// so attempts are idempotent and safe to run speculatively in
// parallel. Dispatched attempts are where the trainer.chunk_* fault
// sites fire, and they stop early once `cancel` is set.
bool TrainLoop::ScoreChunk(size_t s, EvalScratch* es, ChunkScores* out,
                           bool dispatched) const {
  if (dispatched) {
    int64_t stall_ms = 0;
    if (fault::ShouldFire("trainer.chunk_abandon")) return false;
    if (fault::ShouldFire("trainer.chunk_stall", &stall_ms)) {
      fault::CancellableSleepMs(stall_ms > 0 ? stall_ms : 30, &cancel);
    }
  }
  const std::vector<size_t>& slots = shard_plan[s];
  out->scores.resize(slots.size() * static_cast<size_t>(num_dcs));
  out->rho.resize(slots.size());
  Objective evals[kMaxDataCenters];
  const Objective& current = batch_objective;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (dispatched && cancel.load(std::memory_order_relaxed)) {
      return false;  // abandoned: a sibling attempt won, or quiescing
    }
    const VertexId v = agents[batch_begin + slots[i]];
    // Score every DC from one batched what-if pass — EvaluateMoveAll
    // collects the affected set and the destination-independent base
    // deltas once instead of per DC. Seed rho at the current master
    // (whose score is exactly 0) so that ties on a plateau mean "don't
    // move".
    DcId rho = state->master(v);
    double best_score = 0;
    double* scores = out->scores.data() + i * static_cast<size_t>(num_dcs);
    state->EvaluateMoveAll(v, es, evals);
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
    out->rho[i] = rho;
  }
  return true;
}

// Sequential commit: steps 2-4 for every agent. Owner shards commit in
// ascending shard order (slots ascending within a shard), each drawing
// from its own PRNG stream (rngs[s]) — a pure function of the shard
// layout, so the commit sequence is identical however the scoring
// attempts were scheduled and whatever the thread count.
void TrainLoop::Commit(int step) {
  for (size_t s = 0; s < num_shards; ++s) {
    if (shard_plan[s].empty()) continue;
    const ChunkScores& buf = *winner[s];
    for (size_t i = 0; i < shard_plan[s].size(); ++i) {
      const size_t slot = shard_plan[s][i];
      const VertexId v = agents[batch_begin + slot];
      const double* scores =
          buf.scores.data() + i * static_cast<size_t>(num_dcs);
      // Steps 2+3: reinforcement signal for rho, probability update.
      automata->UpdateSignals(v, buf.rho[i]);
      // Step 4: UCB action selection; record the normalized score of
      // the selected action as its observed reward.
      const DcId action = automata->SelectAction(v, step + 1, &rngs[s]);
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
      chosen[slot] = action;
    }
  }
}

// Step 5: migration with rollback, in batch order.
void TrainLoop::Migrate(StepStats* stats) {
  WallTimer migrate_timer;
  for (size_t slot = 0; slot < batch_len; ++slot) {
    const VertexId v = agents[batch_begin + slot];
    const DcId action = chosen[slot];
    const DcId from = state->master(v);
    if (action == from) continue;
    const Objective before = state->CurrentObjective();
    // Evaluate-first acceptance: a rejected move costs one what-if
    // evaluation instead of a commit plus an exact rollback, and most
    // attempted moves are rejected once training settles.
    const Objective after = state->EvaluateMove(v, action, &scratch[0]);
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
      // Committed moves double as the owner's published delta, applied
      // to the audit replica at the next sync.
      sync_delta.moves.push_back(PlanMove{v, from, action});
      state->MoveMaster(v, action);
      ++stats->migrations;
    }
  }
  if (migrate_stage_seconds != nullptr) {
    migrate_stage_seconds->Observe(migrate_timer.ElapsedSeconds());
  }
}

// Applies the pending delta to the audit replica and hands it to the
// sink (docs/sharding.md).
void TrainLoop::SyncReplica() {
  sync_delta.base_version = replica.version();
  const Status synced = replica.Apply(sync_delta);
  RLCUT_CHECK(synced.ok())
      << "shard delta-sync rejected: " << synced.ToString();
  shard_syncs->Increment();
  shard_sync_moves->Increment(sync_delta.moves.size());
  if (sink != nullptr) {
    const Status pushed = sink->PushDelta(sync_delta);
    if (!pushed.ok()) {
      // A push the sink's own mirror rejects is unrecoverable (the
      // network path degrades instead of erroring); stop feeding it and
      // surface the failure through the result.
      if (sink_status.ok()) sink_status = pushed;
      sink = nullptr;
    } else {
      sink_degraded = sink_degraded || sink->degraded();
    }
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
  if (check::ShouldCheckInvariantsAtStep(step)) {
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
  out->num_shards = static_cast<uint32_t>(num_shards);
  out->rng_states.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    out->rng_states[s] = rngs[s].State();
  }
}

// Every exit of Train ends here: the residual sync and the replica
// audit, the sink's flush, and the session cursor.
TrainResult TrainLoop::Finish() {
  fault::SetStepContext(-1);
  if (started) {
    // Flush the residual delta and audit the protocol: after the final
    // sync the delta-built replica must agree with the authoritative
    // plan bit for bit.
    if (!sync_delta.moves.empty()) SyncReplica();
    RLCUT_CHECK(replica.masters() == state->masters())
        << "delta-synced plan replica diverged from the partition state "
           "after "
        << replica.version() << " syncs";
  }
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

Status ValidateRLCutOptions(const RLCutOptions& options) {
  if (options.max_steps <= 0) {
    return Status::InvalidArgument("max_steps must be positive, got " +
                                   std::to_string(options.max_steps));
  }
  if (options.batch_size <= 0) {
    return Status::InvalidArgument("batch_size must be positive, got " +
                                   std::to_string(options.batch_size));
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(options.num_threads));
  }
  if (options.num_shards < 0) {
    return Status::InvalidArgument(
        "num_shards must be >= 0 (0 = kDefaultNumShards), got " +
        std::to_string(options.num_shards));
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
  options_.num_threads = std::max(0, options_.num_threads);
  options_.num_shards = std::max(0, options_.num_shards);
  num_threads_ = options_.num_threads > 0
                     ? static_cast<size_t>(options_.num_threads)
                     : DefaultThreadCount();
  // The shard count deliberately does NOT default to hardware
  // concurrency: it is a checkpoint property (see RLCutOptions), so its
  // default must be the same constant on every host.
  num_shards_ = options_.num_shards > 0
                    ? static_cast<size_t>(options_.num_shards)
                    : static_cast<size_t>(kDefaultNumShards);
  pool_ = std::make_unique<ThreadPool>(num_threads_);
}

RLCutTrainer::~RLCutTrainer() = default;

Status RLCutTrainer::ValidateResume(const TrainerSession& session) const {
  // Legacy (pre-sharding) sessions carry the shard count implicitly as
  // the number of saved PRNG streams.
  const size_t session_shards = session.num_shards != 0
                                    ? static_cast<size_t>(session.num_shards)
                                    : session.rng_states.size();
  if (session.started && session_shards != 0 &&
      session_shards != num_shards_) {
    return Status::FailedPrecondition(
        "cannot resume: session was paused with " +
        std::to_string(session_shards) + " shards but this trainer has " +
        std::to_string(num_shards_) +
        " (set RLCutOptions::num_shards to match; the shard count is a "
        "checkpoint property, while the thread count may differ freely)");
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
