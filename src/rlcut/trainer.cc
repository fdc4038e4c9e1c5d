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
#include <string_view>
#include <unordered_map>

#include "check/invariants.h"
#include "common/logging.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "partition/plan_delta.h"
#include "rlcut/checkpoint.h"
#include "rlcut/shard.h"

namespace rlcut {
namespace {

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

// Instruments of one training step's "trainer.step.*" series, fetched
// once per step so the hot loops update raw counters.
struct StepInstruments {
  obs::Counter* migrations;
  obs::Counter* rollbacks;
  obs::Gauge* sample_rate;
  obs::Gauge* num_agents;
  obs::Gauge* seconds;
  obs::Gauge* transfer_seconds;
  obs::Gauge* cost_dollars;

  // `label` is the {"step", i} set for this step; callers reuse one
  // LabelSet across steps instead of rebuilding the pair per step.
  StepInstruments(obs::MetricsRegistry* registry,
                  const obs::LabelSet& label) {
    migrations = registry->GetCounter("trainer.step.migrations", label);
    rollbacks = registry->GetCounter("trainer.step.rollbacks", label);
    sample_rate = registry->GetGauge("trainer.step.sample_rate", label);
    num_agents = registry->GetGauge("trainer.step.num_agents", label);
    seconds = registry->GetGauge("trainer.step.seconds", label);
    transfer_seconds =
        registry->GetGauge("trainer.step.transfer_seconds", label);
    cost_dollars = registry->GetGauge("trainer.step.cost_dollars", label);
  }
};

// One attempt at scoring one agent chunk. The scoring stage is pure
// (reads the frozen batch-start state, writes only this buffer), so a
// chunk may be executed several times concurrently — by the original
// dispatch, a speculative re-dispatch after a deadline, or the inline
// fallback — and any completed attempt is a valid winner. Retry
// attempts own their EvalScratch; the first round borrows the
// trainer's persistent per-worker scratch.
struct ChunkScores {
  std::vector<double> scores;  // slot-major: [i * num_dcs + r]
  std::vector<DcId> rho;
  std::unique_ptr<EvalScratch> owned_scratch;
};

// Coordination for one batch's scoring stage: chunks claim a winner
// and report attempt completion; the coordinator waits with a deadline
// and re-dispatches stragglers.
struct BatchSync {
  std::mutex mu;
  std::condition_variable cv;
  size_t claimed = 0;  // chunks with a winning attempt
  size_t pending = 0;  // dispatched attempts not yet finished
};

}  // namespace

std::vector<StepStats> StepStatsFromRegistry(
    const obs::MetricsRegistry& registry) {
  std::vector<StepStats> steps;
  // Step label -> steps index; the snapshot interleaves the series, so
  // a linear search here would make materialization O(steps^2).
  std::unordered_map<int, size_t> index;
  auto stats_for = [&steps, &index](int step) -> StepStats& {
    const auto [it, inserted] = index.try_emplace(step, steps.size());
    if (inserted) {
      steps.emplace_back();
      steps.back().step = step;
    }
    return steps[it->second];
  };
  constexpr std::string_view kPrefix = "trainer.step.";
  for (const obs::MetricSample& sample : registry.Snapshot()) {
    if (sample.name.rfind(kPrefix, 0) != 0) continue;
    const std::string step_label = sample.LabelValue("step");
    if (step_label.empty()) continue;
    StepStats& s = stats_for(std::stoi(step_label));
    const std::string_view field =
        std::string_view(sample.name).substr(kPrefix.size());
    if (field == "migrations") {
      s.migrations = static_cast<uint64_t>(sample.value);
    } else if (field == "rollbacks") {
      s.rollbacks = static_cast<uint64_t>(sample.value);
    } else if (field == "sample_rate") {
      s.sample_rate = sample.value;
    } else if (field == "num_agents") {
      s.num_agents = static_cast<uint64_t>(sample.value);
    } else if (field == "seconds") {
      s.seconds = sample.value;
    } else if (field == "transfer_seconds") {
      s.transfer_seconds = sample.value;
    } else if (field == "cost_dollars") {
      s.cost_dollars = sample.value;
    }
  }
  std::sort(steps.begin(), steps.end(),
            [](const StepStats& a, const StepStats& b) {
              return a.step < b.step;
            });
  return steps;
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
  if (options.shard_sync_batches < 0) {
    return Status::InvalidArgument(
        "shard_sync_batches must be >= 0, got " +
        std::to_string(options.shard_sync_batches));
  }
  if (options.chunk_max_retries < 0) {
    return Status::InvalidArgument("chunk_max_retries must be >= 0, got " +
                                   std::to_string(options.chunk_max_retries));
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
  options_.shard_sync_batches = std::max(0, options_.shard_sync_batches);
  options_.chunk_max_retries = std::max(0, options_.chunk_max_retries);
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

double RLCutTrainer::SampleRateForStep(
    int step, const std::vector<StepStats>& history) const {
  if (options_.fixed_sample_rate > 0) {
    return std::min(1.0, options_.fixed_sample_rate);
  }
  if (options_.t_opt_seconds <= 0) return 1.0;
  // No completed-step telemetry yet: fall back to the bootstrap rate.
  // `history` can be empty with step > 0 when a resumed session was
  // paused before its first completed step.
  if (step == 0 || history.empty()) return options_.initial_sample_rate;

  // Eq. 14: remaining time per remaining step, times the mean observed
  // sampling-rate-per-second of past steps.
  double spent = 0;
  double rate_per_second = 0;
  for (const StepStats& s : history) {
    spent += s.seconds;
    rate_per_second += s.sample_rate / std::max(1e-9, s.seconds);
  }
  rate_per_second /= history.size();
  const double remaining = options_.t_opt_seconds - spent;
  if (remaining <= 0) return 0;  // out of time
  const double per_step = remaining / (options_.max_steps - step);
  const double sr = per_step * rate_per_second;
  return std::clamp(sr, options_.min_sample_rate, 1.0);
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
  TrainResult result;
  WallTimer total_timer;
  obs::TraceSpan train_span("trainer/train", "trainer");
  train_span.AddArg("eligible", static_cast<double>(eligible.size()));
  // Per-run registry: the single bookkeeping path for step telemetry;
  // TrainResult::steps is materialized from it (see StepStats).
  obs::MetricsRegistry run_registry;
  obs::MetricsRegistry& global_registry = obs::DefaultRegistry();
  obs::Counter* total_steps = global_registry.GetCounter("trainer.steps");
  obs::Counter* total_visits =
      global_registry.GetCounter("trainer.agent_visits");
  obs::Counter* total_migrations =
      global_registry.GetCounter("trainer.migrations");
  obs::Counter* total_rollbacks =
      global_registry.GetCounter("trainer.rollbacks");
  // Per-batch stage timings are histogram observations; they are only
  // taken when detailed metrics are on (SetDetailedMetrics).
  const bool detailed = obs::DetailedMetricsEnabled();
  obs::Histogram* score_stage_seconds =
      detailed ? global_registry.GetHistogram("trainer.stage.score_seconds")
               : nullptr;
  obs::Histogram* migrate_stage_seconds =
      detailed
          ? global_registry.GetHistogram("trainer.stage.migrate_seconds")
          : nullptr;
  const Graph& graph = state->graph();
  const int num_dcs = state->num_dcs();
  if (eligible.empty() || num_dcs < 2) {
    result.final_objective = state->CurrentObjective();
    result.converged = true;
    return result;
  }

  // Sampling order: ascending degree (Sec. V-C: low-degree agents
  // contribute most per unit of training time). The descending order is
  // kept only for the Fig. 9 ablation.
  const bool descending = options_.sample_highest_degree_first;
  std::sort(eligible.begin(), eligible.end(),
            [&graph, descending](VertexId a, VertexId b) {
              const uint32_t da = graph.Degree(a);
              const uint32_t db = graph.Degree(b);
              if (da != db) return descending ? da > db : da < db;
              return a < b;
            });

  // Hub ordering for the importance-sampling extension: agents with the
  // largest apply-message volume first (see RLCutOptions).
  std::vector<VertexId> hub_order;
  if (options_.hub_slot_fraction > 0) {
    hub_order = eligible;
    std::stable_sort(hub_order.begin(), hub_order.end(),
                     [&](VertexId a, VertexId b) {
                       const double va = state->ApplyBytes(a);
                       const double vb = state->ApplyBytes(b);
                       if (va != vb) return va > vb;
                       return graph.Degree(a) > graph.Degree(b);
                     });
  }

  std::unique_ptr<AutomatonPool> local_pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<AutomatonPool>(graph.num_vertices(),
                                                 num_dcs, options_);
    pool = local_pool.get();
  }
  AutomatonPool& automata = *pool;

  // The ownership layout: each logical shard owns a contiguous
  // degree-balanced vertex range; the owner shard scores and commits
  // its vertices (docs/sharding.md). A pure function of the graph and
  // the shard count, so every host rebuilds the same layout.
  const ShardLayout layout(graph, num_shards_);

  // Per-shard resources. RNG streams are keyed by logical shard — a
  // checkpoint property — never by worker thread, so a session paused
  // on a 16-core host resumes bit-identically on a 4-core one. A
  // resumed session reinstates the per-shard PRNG states so a
  // continued run draws the exact sequence the uninterrupted run
  // would have.
  std::vector<EvalScratch> scratch(num_shards_);
  std::vector<Rng> rngs;
  rngs.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    rngs.emplace_back(options_.seed + 0x9e37 * (s + 1));
  }
  const bool resuming = session != nullptr && session->started;
  if (resuming && session->finished) {
    // The run already concluded; the uninterrupted run would not have
    // trained past this point, so continuing would diverge from it.
    result.steps = session->history;
    result.final_objective = state->CurrentObjective();
    result.converged = true;
    return result;
  }
  if (resuming && !session->rng_states.empty()) {
    // Callers with file-sourced sessions (rlcut_tool --resume_from)
    // gate on ValidateResume() first and exit with a Status; reaching
    // here with a mismatch is an API-contract violation.
    RLCUT_CHECK_EQ(session->rng_states.size(), num_shards_)
        << "resuming a session requires the shard count it was paused "
           "with";
    for (size_t s = 0; s < num_shards_; ++s) {
      rngs[s].SetState(session->rng_states[s]);
    }
  }

  // The audit mirror of the ownership protocol. Scoring reads the
  // authoritative PartitionState; this versioned replica only receives
  // the committed moves as one delta every shard_sync_batches batches,
  // sources the delta stream an attached sink ships, and is checked
  // against the PartitionState after the last sync. Apply is
  // O(|delta|), so a sync costs its moves, not a pass over |V|.
  PlanReplica replica(state->masters(), num_dcs);
  PlanDelta sync_delta;
  int batches_since_sync = 0;
  obs::Counter* shard_syncs =
      global_registry.GetCounter("trainer.shard_syncs");
  obs::Counter* shard_sync_moves =
      global_registry.GetCounter("trainer.shard_sync_moves");
  // The external sink (if attached) receives the starting snapshot and
  // then exactly the deltas the audit replica applies, in order. It is
  // write-only: a slow, degraded, or failed sink never changes what the
  // trainer does, only what TrainResult::replica_status reports.
  ReplicaSink* sink =
      options_.shard_sync_batches > 0 ? replica_sink_ : nullptr;
  Status sink_status;
  bool sink_degraded = false;
  if (sink != nullptr) {
    sink_status = sink->Begin(replica.Snapshot());
    if (!sink_status.ok()) sink = nullptr;
  }
  const auto sync_replica = [&] {
    sync_delta.base_version = replica.version();
    Status synced = replica.Apply(sync_delta);
    RLCUT_CHECK(synced.ok())
        << "shard delta-sync rejected: " << synced.ToString();
    shard_syncs->Increment();
    shard_sync_moves->Increment(sync_delta.moves.size());
    if (sink != nullptr) {
      const Status pushed = sink->PushDelta(sync_delta);
      if (!pushed.ok()) {
        // A push the sink's own mirror rejects is unrecoverable (the
        // network path degrades instead of erroring); stop feeding it
        // and surface the failure through the result.
        if (sink_status.ok()) sink_status = pushed;
        sink = nullptr;
      } else {
        sink_degraded = sink_degraded || sink->degraded();
      }
    }
    sync_delta.moves.clear();
    batches_since_sync = 0;
  };

  // Telemetry of steps completed before this call (resumed sessions):
  // the Eq. 14 sampler reads the full history, and TrainResult::steps
  // spans the whole run.
  const int start_step = resuming ? session->next_step : 0;
  if (resuming) result.steps = session->history;

  // Per-batch decision buffers, indexed by position within the batch.
  const size_t batch_size = static_cast<size_t>(options_.batch_size);
  std::vector<DcId> chosen(batch_size, kNoDc);
  std::vector<uint8_t> taken(graph.num_vertices(), 0);
  std::vector<VertexId> agents;
  // Slot-to-owner-shard grouping, reused across batches. shard_plan[s]
  // lists the batch slots owned — scored and committed — by shard s,
  // in ascending slot order; shard s's commit-phase RNG is rngs[s], so
  // ownership also fixes which PRNG stream each agent draws from
  // (deterministic regardless of execution interleaving or thread
  // count). active_shards lists the shards with work this batch, in
  // dispatch order.
  std::vector<std::vector<size_t>> shard_plan(num_shards_);
  std::vector<size_t> active_shards;
  std::vector<uint64_t> shard_loads(num_shards_, 0);
  // First-round score buffers (one per shard) and the spillover list
  // for speculative retry attempts.
  std::vector<ChunkScores> round0(num_shards_);
  std::vector<std::unique_ptr<ChunkScores>> extra_attempts;
  std::vector<ChunkScores*> winner;
  // Robustness telemetry for the speculative re-dispatch machinery.
  obs::Counter* chunk_redispatches =
      global_registry.GetCounter("trainer.chunk_redispatches");
  obs::Counter* chunk_inline_runs =
      global_registry.GetCounter("trainer.chunk_inline_runs");
  obs::Counter* masked_pool_errors =
      global_registry.GetCounter("trainer.masked_pool_errors");
  obs::Counter* autosaves =
      global_registry.GetCounter("trainer.checkpoint_autosaves");
  obs::Counter* autosave_failures =
      global_registry.GetCounter("trainer.checkpoint_autosave_failures");
  // Reusable {"step", i} label for the per-step instruments.
  obs::LabelSet step_label = {{"step", std::string()}};

  Objective last_objective = state->CurrentObjective();
  int64_t visits_remaining =
      resuming ? session->visits_remaining : options_.agent_visit_budget;

  // First step the next Train call on this session would run: pauses
  // and pre-step exits leave it at the unexecuted step, end-of-step
  // exits advance past the executed one.
  int next_step = start_step;
  bool paused = false;
  for (int step = start_step; step < options_.max_steps; ++step) {
    if (session != nullptr && session->stop_after_step >= 0 &&
        step >= session->stop_after_step) {
      paused = true;
      break;
    }
    obs::TraceSpan step_span("trainer/step", "trainer");
    step_span.AddArg("step", step);
    // steps=A-B fault triggers scope themselves to this window.
    fault::SetStepContext(step);
    double sr = SampleRateForStep(step, result.steps);
    if (options_.agent_visit_budget > 0) {
      if (visits_remaining <= 0) {
        result.hit_time_budget = true;
        break;
      }
      // Deterministic analog of Eq. 14: spread the remaining visit
      // budget evenly over the remaining steps.
      const double per_step = static_cast<double>(visits_remaining) /
                              (options_.max_steps - step);
      sr = std::min(sr, std::clamp(per_step /
                                       static_cast<double>(eligible.size()),
                                   options_.min_sample_rate, 1.0));
    }
    if (sr <= 0) {
      result.hit_time_budget = true;
      break;
    }
    const uint64_t num_agents = std::max<uint64_t>(
        1, static_cast<uint64_t>(sr * static_cast<double>(eligible.size())));
    WallTimer step_timer;

    // Sampled agent set: a reserved share of hub agents plus the
    // lowest-degree prefix (Sec. V-C + the hub-slot extension).
    {
      obs::TraceSpan sample_span("trainer/stage/sample", "trainer");
      sample_span.AddArg("sample_rate", sr);
      sample_span.AddArg("target_agents", static_cast<double>(num_agents));
      agents.clear();
      const size_t hub_count = std::min<size_t>(
          static_cast<size_t>(options_.hub_slot_fraction *
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

    // Eq. 10 weights for this step. The cost term engages only while
    // the budget is violated; tw shifts toward cost as training ages.
    const Objective step_objective = state->CurrentObjective();
    const double over_budget =
        options_.budget > 0
            ? Delta(step_objective.cost_dollars - options_.budget)
            : 0.0;
    const double cw =
        static_cast<double>(step) / static_cast<double>(options_.max_steps);
    const double tw = 1.0 - cw * over_budget;
    const double c_l = step_objective.cost_dollars;
    // Budget-pressure extension: quadratic ramp as cost approaches B.
    const double cost_pressure =
        (options_.budget_pressure && options_.budget > 0)
            ? std::pow(std::min(1.0, c_l / options_.budget), 2.0)
            : 0.0;

    step_label[0].second = std::to_string(step);
    StepInstruments step_metrics(&run_registry, step_label);
    step_metrics.sample_rate->Set(sr);
    step_metrics.num_agents->Set(static_cast<double>(agents.size()));
    step_span.AddArg("sample_rate", sr);
    step_span.AddArg("num_agents", static_cast<double>(agents.size()));

    for (uint64_t batch_begin = 0; batch_begin < agents.size();
         batch_begin += batch_size) {
      const uint64_t batch_end =
          std::min<uint64_t>(agents.size(), batch_begin + batch_size);
      const size_t this_batch = batch_end - batch_begin;
      obs::TraceSpan batch_span("trainer/batch", "trainer");
      batch_span.AddArg("agents", static_cast<double>(this_batch));

      // Batch-start snapshot: agents in this batch score moves against
      // it (the batching semantics of Sec. V-A).
      const Objective batch_objective = state->CurrentObjective();

      // ---- Slot-to-shard assignment (ownership protocol). -----------
      // Each slot belongs to the shard owning its vertex; the
      // assignment is a pure function of the layout, never of the
      // thread count or the load, so the committed trajectory is the
      // same on any host.
      for (size_t s = 0; s < num_shards_; ++s) shard_plan[s].clear();
      for (size_t slot = 0; slot < this_batch; ++slot) {
        shard_plan[layout.OwnerOf(agents[batch_begin + slot])].push_back(
            slot);
      }
      active_shards.clear();
      for (size_t s = 0; s < num_shards_; ++s) {
        if (!shard_plan[s].empty()) active_shards.push_back(s);
      }
      if (options_.straggler_mitigation && active_shards.size() > 1) {
        // Straggler mitigation, sharded form (Sec. V-B): ownership
        // pins which shard scores each agent, so instead of
        // re-balancing the work itself the heaviest shards are
        // dispatched first and the light ones fill the tail. Dispatch
        // order only affects wall clock, never results.
        for (size_t s : active_shards) {
          shard_loads[s] = 0;
          for (size_t slot : shard_plan[s]) {
            shard_loads[s] += graph.Degree(agents[batch_begin + slot]) + 1;
          }
        }
        std::stable_sort(active_shards.begin(), active_shards.end(),
                         [&](size_t a, size_t b) {
                           return shard_loads[a] > shard_loads[b];
                         });
      }

      // ---- Parallel stage: pure scoring (step 1) for every agent. ----
      // Agents score against the same frozen batch-start state; a chunk
      // attempt writes only its own ChunkScores buffer, so attempts are
      // idempotent and safe to run speculatively in parallel. All side
      // effects (automaton updates, action selection, PRNG draws)
      // happen in the sequential commit phase below.
      auto score_chunk = [&](const std::vector<size_t>& slots,
                             EvalScratch& es, ChunkScores* out,
                             const std::atomic<bool>* cancel,
                             bool faults_enabled) -> bool {
        if (faults_enabled) {
          int64_t stall_ms = 0;
          if (fault::ShouldFire("trainer.chunk_abandon")) return false;
          if (fault::ShouldFire("trainer.chunk_stall", &stall_ms)) {
            fault::CancellableSleepMs(stall_ms > 0 ? stall_ms : 30, cancel);
          }
        }
        out->scores.resize(slots.size() * static_cast<size_t>(num_dcs));
        out->rho.resize(slots.size());
        Objective evals[kMaxDataCenters];
        const Objective& current = batch_objective;
        for (size_t i = 0; i < slots.size(); ++i) {
          if (cancel != nullptr &&
              cancel->load(std::memory_order_relaxed)) {
            return false;  // abandoned: a sibling attempt already won
          }
          const VertexId v = agents[batch_begin + slots[i]];
          // Score every DC (Eq. 10) from one batched what-if pass —
          // EvaluateMoveAll collects the affected set and the
          // destination-independent base deltas once instead of per
          // DC. Seed rho at the current master (whose score is exactly
          // 0) so that ties on a plateau mean "don't move".
          DcId rho = state->master(v);
          double best_score = 0;
          double* scores =
              out->scores.data() + i * static_cast<size_t>(num_dcs);
          state->EvaluateMoveAll(v, &es, evals);
          for (DcId r = 0; r < num_dcs; ++r) {
            const Objective& moved =
                (r == state->master(v)) ? current : evals[r];
            const double s = ObjectiveScore(current, moved, tw, cw,
                                            over_budget,
                                            options_.smooth_weight,
                                            cost_pressure, options_.budget);
            scores[r] = s;
            if (s > best_score) {
              best_score = s;
              rho = r;
            }
          }
          out->rho[i] = rho;
        }
        return true;
      };

      BatchSync sync;
      std::atomic<bool> cancel{false};
      winner.assign(num_shards_, nullptr);
      extra_attempts.clear();
      const size_t num_active = active_shards.size();

      // Dispatches one attempt at shard `s`'s slots into `buf`. The
      // first completed attempt per shard is the winner; late
      // duplicates see the claim (or the cancel flag) and discard
      // themselves.
      auto dispatch_shard = [&](size_t s, ChunkScores* buf,
                                EvalScratch* es) {
        {
          std::lock_guard<std::mutex> lock(sync.mu);
          ++sync.pending;
        }
        const bool submitted = pool_->Submit([&, s, buf, es] {
          bool ok = false;
          try {
            ok = score_chunk(shard_plan[s], *es, buf, &cancel,
                             /*faults_enabled=*/true);
          } catch (...) {
            // A failed attempt is not fatal: the deadline loop
            // re-dispatches and the inline fallback would surface a
            // persistent error. Swallowing keeps pending accurate.
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
      };

      {
      obs::TraceSpan score_span("trainer/stage/score", "trainer");
      WallTimer stage_timer;
      // Inline fast path: with one active shard — or one worker
      // thread, where the pool adds no parallelism — and no fault
      // schedule armed, the speculative dispatch machinery (pool
      // submit, cv waits, quiesce) buys nothing — run the pure scoring
      // stage inline on the coordinator. Scores, PRNG assignment and
      // commit order are identical to the dispatched path.
      if (!fault::Armed() && (num_active == 1 || num_threads_ == 1)) {
        for (size_t s : active_shards) {
          score_chunk(shard_plan[s], scratch[s], &round0[s], nullptr,
                      /*faults_enabled=*/false);
          winner[s] = &round0[s];
        }
        if (score_stage_seconds != nullptr) {
          score_stage_seconds->Observe(stage_timer.ElapsedSeconds());
        }
      } else {
      for (size_t s : active_shards) {
        dispatch_shard(s, &round0[s], &scratch[s]);
      }
      // Per-batch deadline with speculative re-dispatch: pool-level
      // faults can drop or stall a chunk's task, so while a schedule
      // is armed a default deadline keeps the batch bounded even if
      // the caller did not configure one.
      double deadline_seconds = options_.batch_deadline_seconds;
      if (deadline_seconds <= 0 && fault::Armed()) deadline_seconds = 0.25;
      int round = 0;
      {
        std::unique_lock<std::mutex> lock(sync.mu);
        while (sync.claimed < num_active) {
          auto settled = [&] {
            return sync.claimed == num_active || sync.pending == 0;
          };
          if (deadline_seconds > 0) {
            // Exponential backoff: each retry round doubles the wait.
            const double wait_seconds =
                deadline_seconds *
                static_cast<double>(int64_t{1} << std::min(round, 20));
            sync.cv.wait_for(lock,
                             std::chrono::duration<double>(wait_seconds),
                             settled);
          } else {
            sync.cv.wait(lock, settled);
          }
          if (sync.claimed == num_active) break;
          if (round >= options_.chunk_max_retries) break;
          ++round;
          for (size_t s : active_shards) {
            if (winner[s] != nullptr) continue;
            auto attempt = std::make_unique<ChunkScores>();
            attempt->owned_scratch = std::make_unique<EvalScratch>();
            ChunkScores* raw = attempt.get();
            extra_attempts.push_back(std::move(attempt));
            chunk_redispatches->Increment();
            lock.unlock();
            dispatch_shard(s, raw, raw->owned_scratch.get());
            lock.lock();
          }
        }
      }
      // Inline fallback: after the retry budget, the coordinator runs
      // the remaining shards itself with injection disabled, so the
      // batch always completes with a full set of scores.
      for (size_t s : active_shards) {
        {
          std::lock_guard<std::mutex> lock(sync.mu);
          if (winner[s] != nullptr) continue;
        }
        auto attempt = std::make_unique<ChunkScores>();
        attempt->owned_scratch = std::make_unique<EvalScratch>();
        chunk_inline_runs->Increment();
        try {
          score_chunk(shard_plan[s], *attempt->owned_scratch,
                      attempt.get(), nullptr, /*faults_enabled=*/false);
        } catch (...) {
          // A real scoring bug (not injectable): quiesce the pool so
          // no abandoned attempt still reads state, then surface it.
          cancel.store(true, std::memory_order_relaxed);
          pool_->Wait();
          throw;
        }
        std::lock_guard<std::mutex> lock(sync.mu);
        winner[s] = attempt.get();
        extra_attempts.push_back(std::move(attempt));
      }
      // Quiesce before the commit/migration phases mutate state: an
      // abandoned speculative attempt must not be mid-read when the
      // masters move. Free when nothing is outstanding.
      cancel.store(true, std::memory_order_relaxed);
      pool_->Wait();
      cancel.store(false, std::memory_order_relaxed);
      if (pool_->TakeError() != nullptr) masked_pool_errors->Increment();
      if (score_stage_seconds != nullptr) {
        score_stage_seconds->Observe(stage_timer.ElapsedSeconds());
      }
      }
      }

      // ---- Sequential commit: steps 2-4 for every agent. -------------
      // Owner shards commit in ascending shard order (slots ascending
      // within a shard), each drawing from its own PRNG stream
      // (rngs[s]) — a pure function of the shard layout, so the commit
      // sequence is identical however the scoring attempts were
      // scheduled and whatever the thread count.
      for (size_t s = 0; s < num_shards_; ++s) {
        if (shard_plan[s].empty()) continue;
        const ChunkScores& buf = *winner[s];
        for (size_t i = 0; i < shard_plan[s].size(); ++i) {
          const size_t slot = shard_plan[s][i];
          const VertexId v = agents[batch_begin + slot];
          const double* scores =
              buf.scores.data() + i * static_cast<size_t>(num_dcs);
          // Steps 2+3: reinforcement signal for rho, probability update.
          automata.UpdateSignals(v, buf.rho[i]);
          // Step 4: UCB action selection; record the normalized score
          // of the selected action as its observed reward.
          const DcId action = automata.SelectAction(v, step + 1, &rngs[s]);
          double best_score = 0;
          double min_score = 0;
          for (DcId r = 0; r < num_dcs; ++r) {
            best_score = std::max(best_score, scores[r]);
            min_score = std::min(min_score, scores[r]);
          }
          const double span = best_score - min_score;
          const double normalized =
              span > 0 ? (scores[action] - min_score) / span : 1.0;
          automata.RecordSelection(v, action, normalized);
          chosen[slot] = action;
        }
      }

      // ---- Sequential stage: step 5, migration with rollback. --------
      obs::TraceSpan migrate_span("trainer/stage/migrate", "trainer");
      WallTimer migrate_timer;
      for (size_t slot = 0; slot < this_batch; ++slot) {
        const VertexId v = agents[batch_begin + slot];
        const DcId action = chosen[slot];
        const DcId from = state->master(v);
        if (action == from) continue;
        const Objective before = state->CurrentObjective();
        // Evaluate-first acceptance: a rejected move costs one what-if
        // evaluation instead of a commit plus an exact rollback, and
        // most attempted moves are rejected once training settles.
        const Objective after = state->EvaluateMove(v, action, &scratch[0]);
        const double budget_delta =
            options_.budget > 0
                ? Delta(before.cost_dollars - options_.budget)
                : 0.0;
        // Hard feasibility filter (Eq. 7): never accept a move that
        // lands above budget while increasing cost. Starting from a
        // feasible state this keeps every intermediate state feasible.
        const bool breaks_budget =
            options_.budget > 0 && after.cost_dollars > options_.budget &&
            after.cost_dollars > before.cost_dollars;
        if (breaks_budget ||
            ObjectiveScore(before, after, tw, cw, budget_delta,
                           options_.smooth_weight, cost_pressure,
                           options_.budget) < 0) {
          step_metrics.rollbacks->Increment();
        } else {
          // Committed moves double as the owner's published delta,
          // applied to the audit mirror at the next replica sync.
          sync_delta.moves.push_back(PlanMove{v, from, action});
          state->MoveMaster(v, action);
          step_metrics.migrations->Increment();
        }
      }
      if (migrate_stage_seconds != nullptr) {
        migrate_stage_seconds->Observe(migrate_timer.ElapsedSeconds());
      }

      // ---- Delta-sync cadence (docs/sharding.md). --------------------
      if (options_.shard_sync_batches > 0 &&
          ++batches_since_sync >= options_.shard_sync_batches) {
        sync_replica();
      }
    }

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
    const double step_seconds = step_timer.ElapsedSeconds();
    step_metrics.seconds->Set(step_seconds);
    step_metrics.transfer_seconds->Set(objective.transfer_seconds);
    step_metrics.cost_dollars->Set(objective.cost_dollars);
    // Accumulate this step's StepStats directly (the registry keeps
    // the same values for export; re-materializing the whole history
    // from it every step was O(steps^2)). StepStatsFromRegistry stays
    // as the offline/resume view over an exported registry.
    StepStats step_stats;
    step_stats.step = step;
    step_stats.sample_rate = sr;
    step_stats.num_agents = agents.size();
    step_stats.seconds = step_seconds;
    step_stats.transfer_seconds = objective.transfer_seconds;
    step_stats.cost_dollars = objective.cost_dollars;
    step_stats.migrations = step_metrics.migrations->value();
    step_stats.rollbacks = step_metrics.rollbacks->value();
    result.steps.push_back(step_stats);

    total_steps->Increment();
    total_visits->Increment(agents.size());
    total_migrations->Increment(step_metrics.migrations->value());
    total_rollbacks->Increment(step_metrics.rollbacks->value());

    // Periodic auto-checkpoint (crash tolerance): a rotating
    // crash-consistent snapshot of the run every N completed steps.
    // Resuming it continues bit-identically, so a crash costs at most
    // N steps of work. Save failures degrade to telemetry + a warning;
    // they never take down the training run.
    if (options_.checkpoint_every_steps > 0 &&
        !options_.checkpoint_path.empty() &&
        next_step % options_.checkpoint_every_steps == 0) {
      TrainerSession snapshot;
      snapshot.next_step = next_step;
      snapshot.started = true;
      snapshot.finished = false;
      snapshot.visits_remaining = visits_remaining;
      snapshot.history = result.steps;
      snapshot.num_shards = static_cast<uint32_t>(num_shards_);
      snapshot.rng_states.resize(num_shards_);
      for (size_t s = 0; s < num_shards_; ++s) {
        snapshot.rng_states[s] = rngs[s].State();
      }
      const TrainerCheckpoint auto_checkpoint =
          CaptureCheckpoint(*state, automata, snapshot, options_.seed);
      if (Status saved = SaveTrainerCheckpointRotating(
              auto_checkpoint, options_.checkpoint_path);
          !saved.ok()) {
        autosave_failures->Increment();
        RLCUT_LOG(kWarning) << "auto-checkpoint failed after step " << step
                            << ": " << saved.ToString();
      } else {
        autosaves->Increment();
      }
    }

    // Convergence: negligible relative improvement while feasible.
    const bool feasible = options_.budget <= 0 ||
                          objective.cost_dollars <= options_.budget;
    const double rel_improvement =
        last_objective.transfer_seconds > 0
            ? (last_objective.transfer_seconds - objective.transfer_seconds) /
                  last_objective.transfer_seconds
            : 0.0;
    last_objective = objective;
    if (feasible && step > 0 &&
        std::fabs(rel_improvement) < options_.convergence_epsilon) {
      result.converged = true;
      break;
    }
    if (options_.t_opt_seconds > 0 &&
        total_timer.ElapsedSeconds() >= options_.t_opt_seconds) {
      result.hit_time_budget = true;
      break;
    }
  }

  fault::SetStepContext(-1);

  // Flush the residual delta and audit the protocol: after the final
  // sync the delta-built replica must agree with the authoritative plan
  // bit for bit.
  if (options_.shard_sync_batches > 0) {
    if (!sync_delta.moves.empty()) sync_replica();
    RLCUT_CHECK(replica.masters() == state->masters())
        << "delta-synced plan replica diverged from the partition state "
           "after "
        << replica.version() << " syncs";
  } else if (replica_sink_ != nullptr) {
    // Delta sync disabled: hand the sink the final plan as a snapshot
    // so it still converges to the authoritative state.
    sink = replica_sink_;
    sink_status = sink->Begin(
        PlanSnapshot{replica.version(), static_cast<int32_t>(num_dcs),
                     state->masters()});
    if (!sink_status.ok()) sink = nullptr;
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

  if (session != nullptr) {
    session->started = true;
    session->paused = paused;
    session->finished = !paused;
    session->next_step = next_step;
    session->visits_remaining = visits_remaining;
    session->history = result.steps;
    session->num_shards = static_cast<uint32_t>(num_shards_);
    session->rng_states.resize(num_shards_);
    for (size_t s = 0; s < num_shards_; ++s) {
      session->rng_states[s] = rngs[s].State();
    }
  }

  result.final_objective = state->CurrentObjective();
  result.overhead_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace rlcut
