// The stream lane (docs/streaming.md): one case drives a seeded
// diurnal edge stream through an RLCutSession, in three runs that must
// all agree and a pair at a sparser cadence:
//
//   * reference — edges arrive in order; every publish's migration
//     delta vs the previous published plan is independently re-tallied
//     (PlanMigration over a cold-built graph) and must respect the
//     session's migration budget exactly;
//   * shuffle — the same events arrive shuffled within each batch
//     window, with duplicated sequence ids and early pushes from the
//     next window; StreamBuffer::Cut must yield the same micro-batches
//     and therefore bit-identical published plans;
//   * resume — the session is checkpointed mid-stream, dropped,
//     restored from the file, and driven to the end; every post-resume
//     publish must be bit-identical to the reference run;
//   * lazy — two runs re-optimize only every k = 2 + seed % 3
//     batches. One reads live_state() after every apply, which
//     re-derives per apply as an eager session would. The other lets
//     applies pile up unread before each re-derive, and checkpoints and
//     restores right after an apply that a re-optimization follows, so
//     the file is written from a session holding k unread batches and
//     the restored session is read at once. Their publishes must be
//     bit-identical.
//
// The final live graph must equal a cold application of the same edits
// (base + stream) edge-for-edge, and the final state must pass
// CheckInvariants and equal a cold PartitionState over that graph and
// the final masters (bit-equal objective, same edge placement). Any
// divergence, invariant violation, budget overshoot or unexpected
// Status is a failure.

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "common/sim_time.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "partition/migration.h"
#include "rlcut/session.h"

namespace rlcut {
namespace check {
namespace {

constexpr int kDcs = 4;
constexpr int kBatches = 8;
constexpr int kMaxSteps = 3;  // training depth per re-optimization
const MigrationBudget kBudget{20, 256 * 1024.0};  // per publish

// One deterministic streaming problem: a 160-vertex diurnal temporal
// stream whose first half seeds the base graph and whose second half
// arrives in kBatches micro-batch windows, plus a mid-stream topology
// event.
struct StreamProblem {
  Topology topology;
  Topology degraded_topology;  // applied mid-stream via UpdateTopology
  TemporalGraph temporal;
  uint64_t base_count;
  Graph base_graph;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  // Per batch: the stream events (globally sequenced) and the watermark.
  std::vector<std::vector<StreamEvent>> batches;
  std::vector<SimTime> watermarks;

  explicit StreamProblem(uint64_t seed)
      : topology(MakeEc2Topology(kDcs, Heterogeneity::kMedium)),
        temporal(MakeStream(seed)),
        base_count(temporal.edges().size() / 2),
        base_graph(temporal.Prefix(base_count)) {
    GeoLocatorOptions geo;
    geo.num_dcs = kDcs;
    geo.seed = seed + 101;
    locations = AssignGeoLocations(base_graph, geo);
    sizes = AssignInputSizes(base_graph);

    std::vector<DataCenter> dcs = topology.dcs();
    for (DataCenter& dc : dcs) dc.uplink_gbps *= 0.7;
    degraded_topology = Topology(std::move(dcs));

    // Window the streamed suffix into strictly increasing watermarks.
    const std::vector<TimedEdge>& all = temporal.edges();
    const SimTime start =
        base_count < all.size() ? all[base_count].time : SimTime(0);
    const SimTime end = all.back().time + SimTime(1);
    batches.assign(kBatches, {});
    const int64_t span = end.micros() - start.micros();
    for (int b = 0; b < kBatches; ++b) {
      watermarks.push_back(
          SimTime::Micros(start.micros() + span * (b + 1) / kBatches));
    }
    watermarks.back() = end;  // catch the final edge exactly
    int batch = 0;
    for (uint64_t i = base_count; i < all.size(); ++i) {
      while (all[i].time > watermarks[batch]) ++batch;
      batches[batch].push_back(StreamEvent{all[i], i});
    }
  }

  static TemporalGraph MakeStream(uint64_t seed) {
    TemporalStreamOptions stream;
    stream.num_vertices = 160;
    stream.num_edges = 960;
    stream.horizon_seconds = 24 * 3600;
    stream.seed = seed;
    return GenerateDiurnalStream(stream);
  }

  PartitionerContext Context() const {
    PartitionerContext ctx;
    ctx.graph = &base_graph;
    ctx.topology = &topology;
    ctx.locations = &locations;
    ctx.input_sizes = &sizes;
    ctx.theta = PartitionState::AutoTheta(base_graph);
    ctx.seed = 1;
    return ctx;
  }

  RLCutSessionOptions SessionOptions(uint64_t seed) const {
    RLCutSessionOptions sopts;
    sopts.initial.max_steps = kMaxSteps;
    sopts.initial.batch_size = 16;
    sopts.initial.num_threads = 2;
    sopts.initial.seed = seed;
    sopts.initial.agent_visit_budget =
        static_cast<int64_t>(base_graph.num_vertices()) * 4;
    sopts.incremental = sopts.initial;
    sopts.incremental.max_steps = std::max(1, kMaxSteps - 1);
    return sopts;
  }
};

// Everything one lane records about its run, for cross-lane comparison.
struct LaneTrace {
  std::vector<std::vector<DcId>> published;  // masters per publish
  std::vector<uint64_t> versions;
  uint64_t budget_clamped = 0;  // publishes whose clamp reverted moves
};

// How one run feeds and reads its session.
struct RunShape {
  // Non-null turns on the adversarial arrival order.
  CounterRng* shuffle_rng = nullptr;
  // Non-null checkpoints at `resume_batch`, drops the session, and
  // restores it from the file.
  const std::string* resume_path = nullptr;
  int resume_batch = kBatches / 2;
  // Checkpoint right after that batch's ApplyDelta, before any reader,
  // instead of after its publish.
  bool resume_after_apply = false;
  // Re-optimize + publish after every `reopt_every`-th batch (and once
  // more at the end if batches are left).
  int reopt_every = 1;
  // Read live_state() after every ApplyDelta.
  bool read_after_apply = false;
};

// The final live state must equal a cold state over the whole stream
// under the final topology, reset to the final masters.
bool MatchesColdState(const StreamProblem& problem,
                      const PartitionState& live, std::string* error) {
  const Graph graph =
      problem.temporal.Prefix(problem.temporal.edges().size());
  const std::vector<double> sizes = AssignInputSizes(graph);
  const PartitionerContext ctx = problem.Context();
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = ctx.theta;
  config.workload = ctx.workload;
  PartitionState cold(&graph, &problem.degraded_topology, &problem.locations,
                      &sizes, config);
  cold.ResetDerived(live.masters());
  const Objective a = live.CurrentObjective();
  const Objective b = cold.CurrentObjective();
  if (a.transfer_seconds != b.transfer_seconds ||
      a.cost_dollars != b.cost_dollars ||
      a.smooth_seconds != b.smooth_seconds) {
    *error = "final objective differs from a cold state's";
    return false;
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (live.edge_dc(e) != cold.edge_dc(e)) {
      *error = "final placement of edge " + std::to_string(e) +
               " differs from a cold state's";
      return false;
    }
  }
  return true;
}

// Drives one session lane: re-optimize + publish, then per batch
// ApplyDelta -> (mid-stream topology event) -> re-optimize -> publish,
// shaped by `shape`.
bool DriveLane(const StreamProblem& problem, uint64_t session_seed,
               const RunShape& shape, LaneTrace* trace, std::string* error) {
  const RLCutSessionOptions sopts = problem.SessionOptions(session_seed);
  Result<std::unique_ptr<RLCutSession>> opened =
      RLCutSession::Open(problem.Context(), sopts);
  if (!opened.ok()) {
    *error = "Open: " + opened.status().ToString();
    return false;
  }
  std::unique_ptr<RLCutSession> session = std::move(*opened);
  StreamBuffer buffer;

  auto reoptimize_and_publish = [&](const char* where) {
    Result<ReoptimizeResult> reopt = session->MaybeReoptimize(kBudget);
    if (!reopt.ok()) {
      *error = std::string(where) +
               " MaybeReoptimize: " + reopt.status().ToString();
      return false;
    }
    Result<PublishedPlan> plan = session->PublishPlan();
    if (!plan.ok()) {
      *error = std::string(where) +
               " PublishPlan: " + plan.status().ToString();
      return false;
    }
    if (plan->migration.vertices_moved > kBudget.max_vertices ||
        plan->migration.bytes_moved > kBudget.max_bytes) {
      std::ostringstream out;
      out << where << " publish v" << plan->version << " exceeded budget: "
          << plan->migration.vertices_moved << " vertices / "
          << plan->migration.bytes_moved << " bytes";
      *error = out.str();
      return false;
    }
    if (plan->reverted_vertices > 0 || (reopt->reverted_vertices > 0)) {
      ++trace->budget_clamped;
    }
    trace->published.push_back(plan->masters);
    trace->versions.push_back(plan->version);
    return true;
  };

  auto checkpoint_and_restore = [&]() {
    if (Status saved = session->SaveCheckpoint(*shape.resume_path);
        !saved.ok()) {
      *error = "SaveCheckpoint: " + saved.ToString();
      return false;
    }
    session.reset();
    Result<std::unique_ptr<RLCutSession>> restored =
        RLCutSession::Restore(*shape.resume_path, sopts);
    if (!restored.ok()) {
      *error = "Restore: " + restored.status().ToString();
      return false;
    }
    session = std::move(*restored);
    return true;
  };

  if (!reoptimize_and_publish("initial")) return false;

  const int topology_batch = kBatches / 3;
  CounterRng* shuffle_rng = shape.shuffle_rng;
  int since_reopt = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<StreamEvent> events = problem.batches[b];
    if (shuffle_rng != nullptr) {
      // Adversarial arrival: shuffled within the window, a few events
      // from the next window pushed early (they stay pending until
      // their own cut), and every 7th event duplicated.
      for (size_t i = events.size(); i > 1; --i) {
        std::swap(events[i - 1], events[shuffle_rng->Below(i)]);
      }
      if (b + 1 < kBatches && !problem.batches[b + 1].empty()) {
        events.push_back(problem.batches[b + 1].front());
      }
    }
    for (size_t i = 0; i < events.size(); ++i) {
      buffer.Push(events[i]);
      if (shuffle_rng != nullptr && i % 7 == 3) buffer.Push(events[i]);
    }
    const MicroBatch batch = buffer.Cut(problem.watermarks[b]);
    Result<ApplyResult> applied = session->ApplyDelta(batch);
    if (!applied.ok()) {
      *error = "batch " + std::to_string(b) +
               " ApplyDelta: " + applied.status().ToString();
      return false;
    }
    if (shape.read_after_apply && session->live_state() == nullptr) {
      *error = "batch " + std::to_string(b) + " has no live state";
      return false;
    }
    const bool resume_here =
        shape.resume_path != nullptr && b == shape.resume_batch;
    if (resume_here && shape.resume_after_apply &&
        !checkpoint_and_restore()) {
      return false;
    }
    if (b == topology_batch) {
      Result<TopologyUpdateResult> updated =
          session->UpdateTopology(problem.degraded_topology);
      if (!updated.ok()) {
        *error = "UpdateTopology: " + updated.status().ToString();
        return false;
      }
    }
    if (++since_reopt == shape.reopt_every) {
      since_reopt = 0;
      if (!reoptimize_and_publish(("batch " + std::to_string(b)).c_str())) {
        return false;
      }
    }
    if (resume_here && !shape.resume_after_apply &&
        !checkpoint_and_restore()) {
      return false;
    }
  }
  if (since_reopt > 0 && !reoptimize_and_publish("final")) return false;

  // Terminal checks: the live state must be internally consistent and
  // the live graph must equal a cold application of the same edits.
  const PartitionState* state = session->live_state();
  if (state == nullptr || !state->CheckInvariants()) {
    *error = "final state violates invariants";
    return false;
  }
  const uint64_t expected_edges = problem.temporal.edges().size();
  if (session->num_edges() != expected_edges) {
    *error = "session holds " + std::to_string(session->num_edges()) +
             " edges, cold application holds " +
             std::to_string(expected_edges);
    return false;
  }
  const Graph cold = problem.temporal.Prefix(expected_edges);
  const Graph& live = state->graph();
  if (live.num_edges() != cold.num_edges()) {
    *error = "live graph edge count diverged from cold application";
    return false;
  }
  for (EdgeId e = 0; e < cold.num_edges(); ++e) {
    const Edge a = live.GetEdge(e);
    const Edge b = cold.GetEdge(e);
    if (a.src != b.src || a.dst != b.dst) {
      *error = "live graph edge " + std::to_string(e) +
               " diverged from cold application";
      return false;
    }
  }
  return MatchesColdState(problem, *state, error);
}

// Re-tallies every publish of the reference lane against an
// independently cold-built problem: the migration delta between
// consecutive published plans must respect the budget under the exact
// sizes the session was using (initial sizes before the first applied
// batch, degree-derived sizes afterwards).
bool RecheckBudgets(const StreamProblem& problem, const LaneTrace& trace,
                    std::string* error) {
  const std::vector<DcId>* previous = &problem.locations;
  for (size_t p = 0; p < trace.published.size(); ++p) {
    // Publish 0 happens before any batch; publish k covers batches
    // [0, k), so the graph holds the base edges plus those batches.
    uint64_t applied = 0;
    for (size_t b = 0; b < p && b < problem.batches.size(); ++b) {
      applied += problem.batches[b].size();
    }
    std::vector<double> sizes;
    if (applied == 0) {
      sizes = problem.sizes;
    } else {
      sizes = AssignInputSizes(
          problem.temporal.Prefix(problem.base_count + applied));
    }
    const MigrationSummary delta = PlanMigration(
        *previous, trace.published[p], sizes, problem.topology);
    if (delta.vertices_moved > kBudget.max_vertices ||
        delta.bytes_moved > kBudget.max_bytes) {
      std::ostringstream out;
      out << "cold re-tally of publish " << p << " exceeds the budget: "
          << delta.vertices_moved << " vertices / " << delta.bytes_moved
          << " bytes";
      *error = out.str();
      return false;
    }
    previous = &trace.published[p];
  }
  return true;
}

}  // namespace

void RunStreamCase(uint64_t seed, LaneReport* report) {
  for (const char* count :
       {"publishes", "budget-clamped", "resumes", "lazy-resumes"}) {
    report->Add(count, 0);
  }
  const StreamProblem problem(seed);
  LaneTrace reference;
  std::string error;
  if (!DriveLane(problem, seed, RunShape{}, &reference, &error)) {
    report->failures.push_back("reference run: " + error);
    return;
  }
  report->Add("publishes", reference.published.size());
  report->Add("budget-clamped", reference.budget_clamped);
  if (!RecheckBudgets(problem, reference, &error)) {
    report->failures.push_back(error);
    return;
  }

  // Shuffle run: identical cuts, therefore identical publishes.
  {
    LaneTrace shuffled;
    CounterRng rng{SplitMix64(seed) ^ 0x5eed};
    RunShape shape;
    shape.shuffle_rng = &rng;
    if (!DriveLane(problem, seed, shape, &shuffled, &error)) {
      report->failures.push_back("shuffle run: " + error);
      return;
    }
    if (shuffled.published != reference.published ||
        shuffled.versions != reference.versions) {
      report->failures.push_back(
          "shuffled arrival diverged from in-order arrival");
      return;
    }
  }

  // Resume run: checkpoint mid-stream, restore, finish identically.
  LaneTrace resumed;
  const std::string path = ScratchPath("stream.ckpt");
  RunShape resume;
  resume.resume_path = &path;
  const bool ok = DriveLane(problem, seed, resume, &resumed, &error);
  RemoveWithSidecars(path);
  if (!ok) {
    report->failures.push_back("resume run: " + error);
    return;
  }
  if (resumed.published != reference.published ||
      resumed.versions != reference.versions) {
    report->failures.push_back(
        "restored session diverged from the uninterrupted session");
    return;
  }
  report->Add("resumes", 1);

  // Lazy pair: unread applies and a checkpoint taken before any reader
  // publish exactly what per-apply reads do at the same cadence.
  RunShape eager;
  eager.reopt_every = 2 + static_cast<int>(seed % 3);
  eager.read_after_apply = true;
  LaneTrace eager_trace;
  if (!DriveLane(problem, seed, eager, &eager_trace, &error)) {
    report->failures.push_back("eager-read run: " + error);
    return;
  }
  RunShape lazy;
  lazy.reopt_every = eager.reopt_every;
  lazy.resume_path = &path;
  // The first batch from the middle on that a re-optimization follows:
  // the checkpoint holds k unread batches, and the restored session is
  // read before it ingests again.
  lazy.resume_batch =
      (kBatches / 2 / lazy.reopt_every + 1) * lazy.reopt_every - 1;
  lazy.resume_after_apply = true;
  LaneTrace lazy_trace;
  const bool lazy_ok = DriveLane(problem, seed, lazy, &lazy_trace, &error);
  RemoveWithSidecars(path);
  if (!lazy_ok) {
    report->failures.push_back("lazy run: " + error);
    return;
  }
  if (lazy_trace.published != eager_trace.published ||
      lazy_trace.versions != eager_trace.versions) {
    report->failures.push_back(
        "deferred re-derives diverged from per-apply reads");
    return;
  }
  report->Add("lazy-resumes", 1);
}

}  // namespace check
}  // namespace rlcut
