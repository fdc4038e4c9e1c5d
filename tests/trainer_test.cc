#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "obs/metrics.h"
#include "partition/plan_delta.h"
#include "rlcut/rlcut_partitioner.h"
#include "rlcut/trainer.h"

namespace rlcut {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  TrainerTest() : topology_(MakeEc2Topology(8, Heterogeneity::kMedium)) {
    PowerLawOptions opt;
    opt.num_vertices = 512;
    opt.num_edges = 4096;
    graph_ = GeneratePowerLaw(opt);
    locations_ = AssignGeoLocations(graph_, GeoLocatorOptions{});
    sizes_ = AssignInputSizes(graph_);

    ctx_.graph = &graph_;
    ctx_.topology = &topology_;
    ctx_.locations = &locations_;
    ctx_.input_sizes = &sizes_;
    ctx_.workload = Workload::PageRank();
    ctx_.theta = PartitionState::AutoTheta(graph_);
    ctx_.budget = 1000.0;  // loose
    ctx_.seed = 7;
  }

  PartitionState NaturalState() const {
    PartitionConfig config;
    config.model = ComputeModel::kHybridCut;
    config.theta = ctx_.theta;
    config.workload = ctx_.workload;
    PartitionState state(&graph_, &topology_, &locations_, &sizes_, config);
    state.ResetDerived(locations_);
    return state;
  }

  RLCutOptions FastOptions() const {
    RLCutOptions opt;
    opt.max_steps = 4;
    opt.batch_size = 16;
    opt.num_threads = 2;
    opt.budget = ctx_.budget;
    opt.seed = 11;
    return opt;
  }

  Graph graph_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  PartitionerContext ctx_;
};

TEST_F(TrainerTest, SamplingOrderMatchesTheDegreeComparator) {
  // The comparator order the counting sort replaces: degree, then id.
  auto reference = [this](std::vector<VertexId> ids, bool descending) {
    std::sort(ids.begin(), ids.end(), [&](VertexId a, VertexId b) {
      const uint32_t da = graph_.Degree(a);
      const uint32_t db = graph_.Degree(b);
      if (da != db) return descending ? da > db : da < db;
      return a < b;
    });
    return ids;
  };
  Rng rng(21);
  std::vector<VertexId> all(graph_.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<VertexId> shuffled = all;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
  }
  // A random unsorted subset with repeated ids.
  std::vector<VertexId> repeats;
  for (int i = 0; i < 300; ++i) {
    repeats.push_back(
        static_cast<VertexId>(rng.UniformInt(graph_.num_vertices())));
  }
  // Ties matter: a power-law graph has many vertices of equal degree.
  std::set<uint32_t> degrees;
  for (VertexId v : all) degrees.insert(graph_.Degree(v));
  ASSERT_LT(degrees.size(), all.size() / 4);
  for (bool descending : {false, true}) {
    for (const std::vector<VertexId>* input :
         {&all, &shuffled, &repeats}) {
      std::vector<VertexId> sorted = *input;
      SortAgentsByDegree(graph_, descending, &sorted);
      EXPECT_EQ(sorted, reference(*input, descending))
          << (descending ? "descending" : "ascending") << ", input size "
          << input->size();
    }
  }
  std::vector<VertexId> none;
  SortAgentsByDegree(graph_, false, &none);
  EXPECT_TRUE(none.empty());
}

TEST_F(TrainerTest, ImprovesOverNaturalPartitioning) {
  PartitionState state = NaturalState();
  const double before = state.CurrentObjective().transfer_seconds;
  RLCutTrainer trainer(FastOptions());
  const TrainResult result = trainer.Train(&state);
  EXPECT_LT(result.final_objective.transfer_seconds, before);
  EXPECT_TRUE(state.CheckInvariants());
  EXPECT_FALSE(result.steps.empty());
}

TEST_F(TrainerTest, MigrationsAndRollbacksAccounted) {
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  obs::Counter* migrations = registry.GetCounter("trainer.migrations");
  obs::Counter* rollbacks = registry.GetCounter("trainer.rollbacks");
  obs::Counter* visits = registry.GetCounter("trainer.agent_visits");
  const uint64_t migrations_before = migrations->value();
  const uint64_t rollbacks_before = rollbacks->value();
  const uint64_t visits_before = visits->value();

  PartitionState state = NaturalState();
  RLCutTrainer trainer(FastOptions());
  const TrainResult result = trainer.Train(&state);
  uint64_t step_migrations = 0;
  uint64_t step_rollbacks = 0;
  uint64_t step_agents = 0;
  for (const StepStats& s : result.steps) {
    step_migrations += s.migrations;
    step_rollbacks += s.rollbacks;
    step_agents += s.num_agents;
  }
  EXPECT_GT(step_migrations + step_rollbacks, 0u);
  // The per-step telemetry and the process-wide counters book the same
  // moves and visits.
  EXPECT_EQ(step_migrations, migrations->value() - migrations_before);
  EXPECT_EQ(step_rollbacks, rollbacks->value() - rollbacks_before);
  EXPECT_EQ(step_agents, visits->value() - visits_before);
}

TEST_F(TrainerTest, RespectsTightBudget) {
  // A tight budget must be satisfied (Exp#2: "RLCut can satisfy the
  // budget constraint under all settings").
  PartitionState state = NaturalState();
  RLCutOptions opt = FastOptions();
  opt.max_steps = 8;
  // Budget slightly above the natural partitioning's cost (which has
  // zero move cost): the trainer must not blow past it.
  opt.budget = state.CurrentObjective().cost_dollars * 1.05 + 1e-9;
  RLCutTrainer trainer(opt);
  const TrainResult result = trainer.Train(&state);
  EXPECT_LE(result.final_objective.cost_dollars, opt.budget * 1.10);
}

TEST_F(TrainerTest, LooseBudgetFindsBetterTransferTime) {
  PartitionState tight_state = NaturalState();
  PartitionState loose_state = NaturalState();
  RLCutOptions tight = FastOptions();
  tight.budget = tight_state.CurrentObjective().cost_dollars * 1.02 + 1e-9;
  RLCutOptions loose = FastOptions();
  loose.budget = 1e9;
  RLCutTrainer(tight).Train(&tight_state);
  RLCutTrainer(loose).Train(&loose_state);
  EXPECT_LE(loose_state.CurrentObjective().transfer_seconds,
            tight_state.CurrentObjective().transfer_seconds * 1.2);
}

TEST_F(TrainerTest, HonorsTimeBudgetRoughly) {
  PartitionState state = NaturalState();
  RLCutOptions opt = FastOptions();
  opt.max_steps = 100;
  opt.t_opt_seconds = 0.15;
  opt.convergence_epsilon = 0;  // do not stop early for convergence
  RLCutTrainer trainer(opt);
  const TrainResult result = trainer.Train(&state);
  // One step can overshoot, so allow generous slack; the point is that
  // 100 unconstrained steps would take far longer.
  EXPECT_LT(result.overhead_seconds, 3.0);
}

TEST_F(TrainerTest, AdaptiveSamplingGrowsWithinTimeBudget) {
  PartitionState state = NaturalState();
  RLCutOptions opt = FastOptions();
  opt.max_steps = 6;
  opt.t_opt_seconds = 5.0;  // plenty for this tiny graph
  opt.convergence_epsilon = 0;
  RLCutTrainer trainer(opt);
  const TrainResult result = trainer.Train(&state);
  ASSERT_GE(result.steps.size(), 2u);
  EXPECT_DOUBLE_EQ(result.steps[0].sample_rate, opt.initial_sample_rate);
  // With lots of remaining time, Eq. 14 must raise the rate.
  EXPECT_GT(result.steps[1].sample_rate, result.steps[0].sample_rate);
}

TEST_F(TrainerTest, FixedSampleRateOverridesAdaptive) {
  PartitionState state = NaturalState();
  RLCutOptions opt = FastOptions();
  opt.fixed_sample_rate = 0.1;
  opt.t_opt_seconds = 5.0;
  opt.convergence_epsilon = 0;
  RLCutTrainer trainer(opt);
  const TrainResult result = trainer.Train(&state);
  for (const StepStats& s : result.steps) {
    EXPECT_DOUBLE_EQ(s.sample_rate, 0.1);
    EXPECT_EQ(s.num_agents,
              static_cast<uint64_t>(0.1 * graph_.num_vertices()));
  }
}

TEST_F(TrainerTest, EligibleSubsetOnlyMovesThoseVertices) {
  PartitionState state = NaturalState();
  const std::vector<DcId> before = state.masters();
  std::vector<VertexId> eligible = {1, 2, 3, 4, 5, 6, 7, 8};
  RLCutOptions opt = FastOptions();
  RLCutTrainer trainer(opt);
  trainer.Train(&state, eligible);
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    const bool in_set =
        std::find(eligible.begin(), eligible.end(), v) != eligible.end();
    if (!in_set) {
      EXPECT_EQ(state.masters()[v], before[v]) << "vertex " << v;
    }
  }
}

TEST_F(TrainerTest, BatchSizeDoesNotChangeQualityMuch) {
  // Exp#3's claim: batch size barely affects optimization quality.
  double transfer_b1 = 0;
  double transfer_b32 = 0;
  {
    PartitionState state = NaturalState();
    RLCutOptions opt = FastOptions();
    opt.batch_size = 1;
    RLCutTrainer(opt).Train(&state);
    transfer_b1 = state.CurrentObjective().transfer_seconds;
  }
  {
    PartitionState state = NaturalState();
    RLCutOptions opt = FastOptions();
    opt.batch_size = 32;
    RLCutTrainer(opt).Train(&state);
    transfer_b32 = state.CurrentObjective().transfer_seconds;
  }
  EXPECT_LT(transfer_b32, transfer_b1 * 1.5);
  EXPECT_GT(transfer_b32, transfer_b1 * 0.5);
}

TEST_F(TrainerTest, PenaltyVariantAlsoImproves) {
  PartitionState state = NaturalState();
  const double before = state.CurrentObjective().transfer_seconds;
  RLCutOptions opt = FastOptions();
  opt.use_penalty = true;
  RLCutTrainer(opt).Train(&state);
  EXPECT_LT(state.CurrentObjective().transfer_seconds, before);
}

TEST_F(TrainerTest, StragglerMitigationOffStillCorrect) {
  PartitionState state = NaturalState();
  const double before = state.CurrentObjective().transfer_seconds;
  RLCutOptions opt = FastOptions();
  opt.straggler_mitigation = false;
  RLCutTrainer(opt).Train(&state);
  EXPECT_LT(state.CurrentObjective().transfer_seconds, before);
  EXPECT_TRUE(state.CheckInvariants());
}

TEST_F(TrainerTest, EmptyEligibleSetIsNoOp) {
  PartitionState state = NaturalState();
  const std::vector<DcId> before = state.masters();
  RLCutTrainer trainer(FastOptions());
  const TrainResult result = trainer.Train(&state, {});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(state.masters(), before);
}

// Counts what a trainer hands its replica sink and replays it onto a
// PlanReplica, as net::ReplicaClient's mirror does; Flush returns
// `flush_status`.
class RecordingSink : public ReplicaSink {
 public:
  Status Begin(const PlanSnapshot& snapshot) override {
    ++begins;
    return replica.InstallSnapshot(snapshot);
  }
  Status PushDelta(const PlanDelta& delta) override {
    ++pushes;
    return replica.Apply(delta);
  }
  Status Flush() override {
    ++flushes;
    return flush_status;
  }
  bool degraded() const override { return false; }
  uint64_t version() const override { return replica.version(); }

  int begins = 0;
  int pushes = 0;
  int flushes = 0;
  PlanReplica replica;
  Status flush_status;
};

uint64_t Migrations(const std::vector<StepStats>& steps, size_t first = 0) {
  uint64_t migrations = 0;
  for (size_t i = first; i < steps.size(); ++i) {
    migrations += steps[i].migrations;
  }
  return migrations;
}

TEST_F(TrainerTest, SinkDeltasRebuildTheTrainedPlan) {
  for (ActionSelection sel :
       {ActionSelection::kUcbBlend, ActionSelection::kUcbScore,
        ActionSelection::kProbability, ActionSelection::kGreedy}) {
    PartitionState state = NaturalState();
    RLCutOptions opt = FastOptions();
    opt.selection = sel;
    RLCutTrainer trainer(opt);
    RecordingSink sink;
    trainer.SetReplicaSink(&sink);
    const TrainResult result = trainer.Train(&state);
    EXPECT_GT(Migrations(result.steps), 0u)
        << "selection=" << static_cast<int>(sel);
    EXPECT_TRUE(result.replica_status.ok());
    EXPECT_GT(sink.pushes, 0);
    EXPECT_EQ(sink.replica.version(), static_cast<uint64_t>(sink.pushes));
    EXPECT_EQ(sink.replica.masters(), state.masters())
        << "selection=" << static_cast<int>(sel);
  }
}

TEST_F(TrainerTest, SinkDeltasFollowAPausedAndResumedRun) {
  PartitionState state = NaturalState();
  RLCutTrainer trainer(FastOptions());
  std::vector<VertexId> all(graph_.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  AutomatonPool pool(graph_.num_vertices(), state.num_dcs(), trainer.options());
  TrainerSession session;
  session.stop_after_step = 2;
  RecordingSink sink;
  trainer.SetReplicaSink(&sink);

  const TrainResult paused = trainer.Train(&state, all, &pool, &session);
  ASSERT_TRUE(session.paused);
  EXPECT_GT(Migrations(paused.steps), 0u);
  EXPECT_EQ(sink.replica.masters(), state.masters());

  // The resumed call begins the sink again from the paused plan.
  session.stop_after_step = -1;
  const TrainResult resumed = trainer.Train(&state, all, &pool, &session);
  ASSERT_TRUE(session.finished);
  EXPECT_GT(Migrations(resumed.steps, paused.steps.size()), 0u);
  EXPECT_EQ(sink.begins, 2);
  EXPECT_TRUE(resumed.replica_status.ok());
  EXPECT_EQ(sink.replica.masters(), state.masters());
}

TEST_F(TrainerTest, EarlyExitsBeginAndFlushTheReplicaSink) {
  PartitionState state = NaturalState();
  RLCutTrainer trainer(FastOptions());
  std::vector<VertexId> all(graph_.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  AutomatonPool pool(graph_.num_vertices(), state.num_dcs(), trainer.options());
  TrainerSession session;
  trainer.Train(&state, all, &pool, &session);
  ASSERT_TRUE(session.finished);
  const int next_step = session.next_step;

  // Train calls that return before any step: nothing eligible, and a
  // resumed session that already finished. The sink must still be
  // handed the plan and flushed, so replica_status reports whether the
  // far side holds it.
  const std::function<TrainResult()> early_exits[] = {
      [&] { return trainer.Train(&state, {}); },
      [&] { return trainer.Train(&state, all, &pool, &session); },
  };
  for (const auto& train : early_exits) {
    RecordingSink sink;
    trainer.SetReplicaSink(&sink);
    EXPECT_TRUE(train().replica_status.ok());
    EXPECT_EQ(sink.begins, 1);
    EXPECT_EQ(sink.pushes, 0);
    EXPECT_EQ(sink.flushes, 1);
    EXPECT_EQ(sink.replica.version(), 0u);
    EXPECT_EQ(sink.replica.num_dcs(), state.num_dcs());
    EXPECT_EQ(sink.replica.masters(), state.masters());

    sink.flush_status = Status::Internal("replica unreachable");
    EXPECT_FALSE(train().replica_status.ok());
    trainer.SetReplicaSink(nullptr);
  }
  // Neither exit moves the session cursor.
  EXPECT_TRUE(session.finished);
  EXPECT_EQ(session.next_step, next_step);
}

TEST_F(TrainerTest, PartitionerAdapterRuns) {
  auto partitioner = MakeRLCut(FastOptions());
  EXPECT_EQ(partitioner->name(), "RLCut");
  EXPECT_EQ(partitioner->model(), ComputeModel::kHybridCut);
  PartitionOutput out = partitioner->RunOrDie(ctx_);
  EXPECT_TRUE(out.state.CheckInvariants());
  EXPECT_GT(out.overhead_seconds, 0.0);
}

TEST_F(TrainerTest, BeatsGingerOnHeterogeneousNetwork) {
  // The core claim (Fig. 10): on a heterogeneous topology RLCut's final
  // transfer time undercuts Ginger's.
  auto ginger = MakePartitionerByName("Ginger", {}).value()->RunOrDie(ctx_);
  RLCutOptions opt = FastOptions();
  opt.max_steps = 10;
  RLCutRunOutput ours = RunRLCut(ctx_, opt);
  EXPECT_LT(ours.state.CurrentObjective().transfer_seconds,
            ginger.state.CurrentObjective().transfer_seconds);
}

TEST_F(TrainerTest, ReusedObjectivesPassTheAuditOnANonDyadicWorkload) {
  // 8.1-byte apply messages make the byte sums inexact, so regrouping
  // them would change bits. RLCUT_DEBUG_INVARIANTS=1 makes every step
  // compare each objective Migrate reuses or folds with a fresh
  // EvaluateMove using ==, which holds only because every evaluation
  // runs the same fold on the same collection.
  struct ScopedAudit {
    ScopedAudit() {
      if (const char* old = std::getenv("RLCUT_DEBUG_INVARIANTS")) {
        saved = old;
      }
      ::setenv("RLCUT_DEBUG_INVARIANTS", "1", 1);
    }
    ~ScopedAudit() {
      if (saved.has_value()) {
        ::setenv("RLCUT_DEBUG_INVARIANTS", saved->c_str(), 1);
      } else {
        ::unsetenv("RLCUT_DEBUG_INVARIANTS");
      }
    }
    std::optional<std::string> saved;
  } audit;
  PartitionConfig config;
  config.theta = ctx_.theta;
  config.workload = Workload::PageRank();
  config.workload.apply_base_bytes = 8.1;
  config.workload.apply_bytes_per_out_edge = 0.3;
  for (ActionSelection sel :
       {ActionSelection::kUcbBlend, ActionSelection::kUcbScore,
        ActionSelection::kProbability, ActionSelection::kGreedy}) {
    std::vector<DcId> masters_at_one_thread;
    for (int threads : {1, 4}) {
      PartitionState state(&graph_, &topology_, &locations_, &sizes_,
                           config);
      state.ResetDerived(locations_);
      RLCutOptions opt = FastOptions();
      opt.selection = sel;
      opt.num_threads = threads;
      const TrainResult result = RLCutTrainer(opt).Train(&state);
      EXPECT_GT(Migrations(result.steps), 0u)
          << "selection=" << static_cast<int>(sel) << " threads=" << threads;
      if (threads == 1) {
        masters_at_one_thread = state.masters();
      } else {
        EXPECT_EQ(state.masters(), masters_at_one_thread)
            << "selection=" << static_cast<int>(sel);
      }
    }
  }
}

TEST_F(TrainerTest, SelectionStrategiesAllImprove) {
  for (ActionSelection sel :
       {ActionSelection::kUcbBlend, ActionSelection::kUcbScore,
        ActionSelection::kProbability, ActionSelection::kGreedy}) {
    PartitionState state = NaturalState();
    const double before = state.CurrentObjective().transfer_seconds;
    RLCutOptions opt = FastOptions();
    opt.selection = sel;
    RLCutTrainer(opt).Train(&state);
    EXPECT_LT(state.CurrentObjective().transfer_seconds, before)
        << "selection=" << static_cast<int>(sel);
  }
}

}  // namespace
}  // namespace rlcut
