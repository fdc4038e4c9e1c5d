// The four workloads of rlcut_bench. Each calls the public API of the
// graph, partition, rlcut and net modules directly and opens one obs
// span (category = module) around every top-level layer call of a rep,
// so a traced rep splits its wall time by layer; see README.md for why
// each workload exists and which metrics it should move.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/rlg.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "graph/transform.h"
#include "harness.h"
#include "net/replica_service.h"
#include "obs/trace.h"
#include "partition/metrics.h"
#include "partition/plan_delta.h"
#include "partition/plan_io.h"
#include "rlcut/session.h"
#include "rlcut/trainer.h"

extern char** environ;

namespace rlcut::bench {
namespace {

constexpr int kNumDcs = 8;
// Budget B as a share of the cost of moving every vertex to the
// cheapest-upload DC (rlcut_tool's --budget_fraction default).
constexpr double kBudgetFraction = 0.4;
// Calls per evaluator micro-timing (partition.*_ns).
constexpr int kMicroCalls = 100000;
constexpr size_t kMmapBudgetBytes = size_t{64} << 20;

std::string Join(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / name).string();
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

// A failed library call during set-up: the run cannot measure anything.
void Require(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

// The partitioning problem in original vertex ids, with rlcut_tool's
// defaults: 8 EC2 DCs at medium heterogeneity, PageRank traffic.
struct Problem {
  Topology topology;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  uint32_t theta = 0;
  double budget = 0;
};

Problem MakeProblem(const Graph& graph, uint64_t geo_seed) {
  Problem problem;
  problem.topology = MakeEc2Topology(kNumDcs, Heterogeneity::kMedium);
  GeoLocatorOptions geo;
  geo.num_dcs = kNumDcs;
  geo.seed = geo_seed;
  problem.locations = AssignGeoLocations(graph, geo);
  problem.sizes = AssignInputSizes(graph);
  problem.theta = PartitionState::AutoTheta(graph);
  const DcId hub = problem.topology.CheapestUploadDc();
  double centralized = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (problem.locations[v] != hub) {
      centralized +=
          problem.topology.UploadCost(problem.locations[v], problem.sizes[v]);
    }
  }
  problem.budget = kBudgetFraction * centralized;
  return problem;
}

PartitionConfig HybridConfig(uint32_t theta) {
  PartitionConfig config;
  config.model = ComputeModel::kHybridCut;
  config.theta = theta;
  return config;
}

// Fixed-work training: no T_opt and no early stop, so every pass runs
// all max_steps and the work of a rep does not depend on when the
// objective happens to flatten.
RLCutOptions TrainerOptions(int threads, double budget) {
  RLCutOptions options;
  options.budget = budget;
  options.seed = kTrainerSeed;
  options.num_threads = threads;
  options.convergence_epsilon = 0;
  return options;
}

// A state trained on degree-ordered ids, with everything it points to.
struct Trained {
  GraphStore store;
  VertexPermutation perm;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  std::unique_ptr<PartitionState> state;
};

// State build -> Train -> report -> plan mapped back to original ids ->
// SavePlan: the part of a rep batch_tw, replica_tw and ooc_powerlaw
// share once the degree-ordered graph exists.
void TrainAndSave(Trained* trained, const Problem& problem,
                  const RLCutOptions& options, ReplicaSink* sink,
                  const std::string& plan_path, RepResult* rep) {
  {
    obs::TraceSpan span("partition.state_build", "partition");
    trained->locations = PermuteVertexValues(problem.locations, trained->perm);
    trained->sizes = PermuteVertexValues(problem.sizes, trained->perm);
    trained->state = std::make_unique<PartitionState>(
        &trained->store.graph(), &problem.topology, &trained->locations,
        &trained->sizes, HybridConfig(problem.theta));
    trained->state->ResetDerived(trained->locations);
  }
  TrainResult train;
  {
    obs::TraceSpan span("rlcut.train", "rlcut");
    RLCutTrainer trainer(options);
    trainer.SetReplicaSink(sink);
    train = trainer.Train(trained->state.get());
  }
  PartitionReport report;
  {
    obs::TraceSpan span("partition.report", "partition");
    report = MakeReport(*trained->state);
  }
  PartitionPlan plan;
  Status saved;
  {
    obs::TraceSpan span("partition.plan_save", "partition");
    plan = ExtractPlan(*trained->state);
    plan.masters = UnpermuteVertexValues(plan.masters, trained->perm);
    saved = SavePlan(plan, plan_path);
  }
  if (!saved.ok()) rep->failures.push_back("SavePlan: " + saved.ToString());
  if (!train.replica_status.ok()) {
    rep->failures.push_back("replica flush: " +
                            train.replica_status.ToString());
  }
  if (train.replica_degraded) rep->failures.push_back("replica degraded");
  for (const StepStats& step : train.steps) {
    rep->reopt_ms.push_back(step.seconds * 1e3);
  }
  rep->fingerprint = MastersFingerprint(plan.masters);
  rep->transfer_ms = report.transfer_seconds * 1e3;
  rep->cost_usd = report.total_cost;
  rep->counts["partition.plan_bytes"] = FileBytes(plan_path);
  rep->counts["rlcut.session.trained_vertices"] =
      trained->store.graph().num_vertices();
}

// Re-applies the plan saved at `path` to a cold state over the
// original-id problem and checks it prices exactly as reported.
std::unique_ptr<PartitionState> CheckPlanRoundTrip(const std::string& path,
                                                   const Graph& graph,
                                                   const Problem& problem,
                                                   double transfer_ms,
                                                   Run* run) {
  Result<PartitionPlan> plan = LoadPlan(path);
  if (!run->Check(plan.ok(), "LoadPlan of the saved plan")) return nullptr;
  auto state = std::make_unique<PartitionState>(
      &graph, &problem.topology, &problem.locations, &problem.sizes,
      HybridConfig(plan->theta));
  const bool applied = ApplyPlan(*plan, state.get()).ok();
  run->Check(applied &&
                 MakeReport(*state).transfer_seconds * 1e3 == transfer_ms,
             "SavePlan -> LoadPlan -> ApplyPlan reproduces plan_transfer_ms");
  return state;
}

// partition.evaluate_move_all_ns and partition.move_master_ns: calls in
// the trainer's visit order (ascending degree, id tie-break) on a
// trained state. Every move is undone, so the state ends as it began.
void MeasureEvaluator(PartitionState* state, std::map<std::string, double>* once,
                      Run* run) {
  const Graph& graph = state->graph();
  std::vector<VertexId> order(graph.num_vertices());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&graph](VertexId a, VertexId b) {
    const uint32_t da = graph.Degree(a);
    const uint32_t db = graph.Degree(b);
    return da != db ? da < db : a < b;
  });
  EvalScratch scratch;
  std::array<Objective, kMaxDataCenters> out;
  double total = 0;
  WallTimer eval_timer;
  for (int i = 0; i < kMicroCalls; ++i) {
    state->EvaluateMoveAll(order[i % order.size()], &scratch, out.data());
    total += out[0].transfer_seconds;
  }
  (*once)["partition.evaluate_move_all_ns"] =
      eval_timer.ElapsedSeconds() * 1e9 / kMicroCalls;

  const uint64_t before = MastersFingerprint(state->masters());
  WallTimer move_timer;
  for (int i = 0; i < kMicroCalls / 2; ++i) {
    const VertexId v = order[i % order.size()];
    const DcId from = state->master(v);
    state->MoveMaster(v, (from + 1) % state->num_dcs());
    state->MoveMaster(v, from);
  }
  (*once)["partition.move_master_ns"] =
      move_timer.ElapsedSeconds() * 1e9 / kMicroCalls;
  run->Check(std::isfinite(total) &&
                 MastersFingerprint(state->masters()) == before,
             "evaluator micro-timing leaves the trained plan unchanged");
}

// The rlcut_replica worker as a child process on an ephemeral port.
class ReplicaProcess {
 public:
  explicit ReplicaProcess(const std::string& binary) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe for rlcut_replica failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    // One connection: the worker also exits if this process dies and
    // its socket closes.
    std::string arg0 = binary;
    std::string port_arg = "--port=0";
    std::string connections_arg = "--max_connections=1";
    std::string quiet_arg = "--quiet";
    char* argv[] = {arg0.data(), port_arg.data(), connections_arg.data(),
                    quiet_arg.data(), nullptr};
    const int spawned =
        posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_ = ::fdopen(fds[0], "r");
    if (out_ == nullptr) ::close(fds[0]);
    if (spawned != 0) pid_ = -1;
    char line[256];
    if (pid_ < 0 || out_ == nullptr ||
        std::fgets(line, sizeof(line), out_) == nullptr ||
        std::sscanf(line, "rlcut_replica listening on 127.0.0.1:%d",
                    &port_) != 1) {
      // The destructor does not run for a constructor that throws.
      Release();
      throw std::runtime_error("cannot start " + binary);
    }
  }

  ~ReplicaProcess() { Release(); }

  ReplicaProcess(const ReplicaProcess&) = delete;
  ReplicaProcess& operator=(const ReplicaProcess&) = delete;

  int port() const { return port_; }

  /// Stops the worker (SIGTERM), waits for it, and returns the replica
  /// fingerprint from its final line.
  Result<uint64_t> Stop() {
    if (pid_ <= 0) return Status::Internal("rlcut_replica is not running");
    ::kill(pid_, SIGTERM);
    unsigned long long version = 0;
    unsigned long long fingerprint = 0;
    bool found = false;
    char line[512];
    while (std::fgets(line, sizeof(line), out_) != nullptr) {
      found = found || std::sscanf(line, "replica final: v%llu fingerprint %llx",
                                   &version, &fingerprint) == 2;
    }
    int wait_status = 0;
    ::waitpid(pid_, &wait_status, 0);
    pid_ = -1;
    if (!found || !WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
      return Status::Internal("rlcut_replica did not exit cleanly");
    }
    return static_cast<uint64_t>(fingerprint);
  }

 private:
  // Kills the worker if it still runs, reaps it and closes the pipe.
  void Release() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

  pid_t pid_ = -1;
  FILE* out_ = nullptr;
  int port_ = 0;
};

// The net layer's timing: forwards every call to the ReplicaClient and
// records each PushDelta round trip.
class TimedSink : public ReplicaSink {
 public:
  explicit TimedSink(ReplicaSink* inner) : inner_(inner) {}

  Status Begin(const PlanSnapshot& snapshot) override {
    obs::TraceSpan span("net.begin", "net");
    return inner_->Begin(snapshot);
  }

  Status PushDelta(const PlanDelta& delta) override {
    WallTimer timer;
    Status status;
    {
      obs::TraceSpan span("net.push", "net");
      status = inner_->PushDelta(delta);
    }
    push_ms.push_back(timer.ElapsedMillis());
    // Computed, not measured on the wire (traced runs only: the encode
    // is not part of the workload).
    if (obs::TracingEnabled()) delta_bytes += EncodePlanDelta(delta).size();
    return status;
  }

  Status Flush() override {
    obs::TraceSpan span("net.flush", "net");
    return inner_->Flush();
  }

  bool degraded() const override { return inner_->degraded(); }
  uint64_t version() const override { return inner_->version(); }

  std::vector<double> push_ms;
  uint64_t delta_bytes = 0;

 private:
  ReplicaSink* inner_;
};

// batch_tw and replica_tw: the TW preset partitioned anew every rep,
// optionally mirroring the plan to a replica over loopback TCP.
class TwWorkload : public Workload {
 public:
  TwWorkload(const Config& config, bool with_replica)
      : config_(config),
        scale_(config.quick ? 4000 : 500),
        plan_path_(Join(config.work_dir, "plan.txt")) {
    if (with_replica) {
      replica_ = std::make_unique<ReplicaProcess>(config.replica_bin);
      net::ReplicaClientOptions options;
      options.retry.seed = kTrainerSeed;
      client_ = std::make_unique<net::ReplicaClient>(
          net::ReplicaClient::TcpConnector(
              "127.0.0.1:" + std::to_string(replica_->port()),
              options.dial_timeout_ms),
          options);
      sink_ = std::make_unique<TimedSink>(client_.get());
    }
  }

  double Setup() override {
    WallTimer timer;
    graph_ = LoadDataset(Dataset::kTwitter, scale_, config_.seed);
    const double build_s = timer.ElapsedSeconds();
    problem_ = MakeProblem(graph_, config_.seed);
    return build_s;
  }

  RepResult Rep(int threads) override { return RunRep(threads, sink_.get()); }

  void Verify(Run* run, std::map<std::string, double>* once) override {
    run->Check(last_.cost_usd <= problem_.budget,
               "plan_cost_usd is within the budget B");
    CheckPlanRoundTrip(plan_path_, graph_, problem_, last_.transfer_ms, run);
    if (replica_ != nullptr) {
      const uint64_t mirror = client_->mirror_fingerprint();
      run->Check(mirror == MastersFingerprint(trained_->state->masters()),
                 "the client mirror holds the trained plan");
      client_->CloseConnection();
      const Result<uint64_t> remote = replica_->Stop();
      run->Check(remote.ok() && *remote == mirror,
                 "the replica's final fingerprint equals the client mirror's");
      // batch_tw's rep: same instance, no replica, one thread.
      const uint64_t trained_with_replica = last_.fingerprint;
      run->Check(RunRep(1, nullptr).fingerprint == trained_with_replica,
                 "replica_tw's plan equals batch_tw's");
    }
    if (once != nullptr) MeasureEvaluator(trained_->state.get(), once, run);
  }

  std::string ArgsJson() const override {
    return "{\"dataset\": \"TW\", \"scale\": " + std::to_string(scale_) +
           ", \"dcs\": " + std::to_string(kNumDcs) +
           ", \"budget_fraction\": " + JsonNumber(kBudgetFraction) +
           ", \"vertex_order\": \"degree\", \"replica\": " +
           (replica_ != nullptr ? "true" : "false") +
           ", \"vertices\": " + std::to_string(graph_.num_vertices()) +
           ", \"edges\": " + std::to_string(graph_.num_edges()) +
           ", \"budget_usd\": " + JsonNumber(problem_.budget) + "}";
  }

 private:
  RepResult RunRep(int threads, TimedSink* sink) {
    trained_.reset();
    RepResult rep;
    WallTimer timer;
    {
      obs::TraceSpan rep_span("bench.rep", "bench");
      auto trained = std::make_unique<Trained>();
      {
        obs::TraceSpan span("graph.renumber", "graph");
        trained->perm = BuildVertexOrder(graph_, VertexOrderKind::kDegree);
        trained->store =
            GraphStore::InMemory(ReorderVertices(graph_, trained->perm));
      }
      if (sink != nullptr) {
        sink->push_ms.clear();
        sink->delta_bytes = 0;
      }
      TrainAndSave(trained.get(), problem_,
                   TrainerOptions(threads, problem_.budget), sink, plan_path_,
                   &rep);
      trained_ = std::move(trained);
    }
    rep.seconds = timer.ElapsedSeconds();
    if (sink != nullptr) {
      // The replica link's round trips are this workload's operation.
      rep.op_ms = sink->push_ms;
      rep.counts["net.pushes"] = static_cast<double>(sink->push_ms.size());
      rep.counts["net.delta_bytes"] = static_cast<double>(sink->delta_bytes);
    }
    last_ = rep;
    return rep;
  }

  const Config& config_;
  const uint64_t scale_;
  const std::string plan_path_;
  Graph graph_;
  Problem problem_;
  std::unique_ptr<Trained> trained_;
  RepResult last_;
  std::unique_ptr<ReplicaProcess> replica_;
  std::unique_ptr<net::ReplicaClient> client_;
  std::unique_ptr<TimedSink> sink_;
};

// serve_diurnal: an RLCutSession fed a diurnal edge stream in
// micro-batches by one closed-loop client. Every rep replays the same
// stream through a fresh session, so every rep is the same work.
class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Config& config)
      : config_(config),
        vertices_(config.quick ? 1024 : 8192),
        edges_(config.quick ? 16384 : 131072),
        budget_vertices_(config.quick ? 16 : 128),
        plan_path_(Join(config.work_dir, "plan.txt")) {}

  double Setup() override {
    WallTimer timer;
    TemporalStreamOptions options;
    options.num_vertices = vertices_;
    options.num_edges = edges_;
    options.horizon_seconds = kHorizonSeconds;
    options.seed = config_.seed;
    stream_.emplace(GenerateDiurnalStream(options));
    base_count_ = stream_->edges().size() / 5;
    base_ = stream_->Prefix(base_count_);
    const double build_s = timer.ElapsedSeconds();
    topology_ = MakeEc2Topology(kNumDcs, Heterogeneity::kMedium);
    GeoLocatorOptions geo;
    geo.num_dcs = kNumDcs;
    geo.seed = config_.seed + 101;
    locations_ = AssignGeoLocations(base_, geo);
    sizes_ = AssignInputSizes(base_);
    theta_ = PartitionState::AutoTheta(base_);
    return build_s;
  }

  RepResult Rep(int threads) override {
    session_.reset();
    RepResult rep;
    WallTimer timer;
    {
      obs::TraceSpan rep_span("bench.rep", "bench");
      RunStream(threads, &rep);
    }
    rep.seconds = timer.ElapsedSeconds();
    return rep;
  }

  void Verify(Run* run, std::map<std::string, double>* once) override {
    if (!run->Check(session_ != nullptr && session_->live_state() != nullptr,
                    "the session published a plan")) {
      return;
    }
    const PartitionState& live = *session_->live_state();
    Problem problem;
    problem.topology = topology_;
    problem.locations = locations_;
    problem.sizes = AssignInputSizes(live.graph());
    std::unique_ptr<PartitionState> state = CheckPlanRoundTrip(
        plan_path_, live.graph(), problem,
        MakeReport(live).transfer_seconds * 1e3, run);
    if (once != nullptr && state != nullptr) {
      MeasureEvaluator(state.get(), once, run);
    }
  }

  std::string ArgsJson() const override {
    return "{\"vertices\": " + std::to_string(vertices_) +
           ", \"edges\": " + std::to_string(edges_) +
           ", \"base_edges\": " + std::to_string(base_count_) +
           ", \"horizon_s\": " + JsonNumber(kHorizonSeconds) +
           ", \"batch_window_s\": " + JsonNumber(kBatchSeconds) +
           ", \"reopt_every\": " + std::to_string(kReoptEvery) +
           ", \"budget_vertices\": " + std::to_string(budget_vertices_) +
           ", \"dcs\": " + std::to_string(kNumDcs) +
           ", \"clients\": 1, \"loop\": \"closed\"}";
  }

 private:
  static constexpr double kHorizonSeconds = 24 * 3600.0;
  static constexpr double kBatchSeconds = 45.0;
  static constexpr int kReoptEvery = 10;

  void RunStream(int threads, RepResult* rep) {
    PartitionerContext ctx;
    ctx.graph = &base_;
    ctx.topology = &topology_;
    ctx.locations = &locations_;
    ctx.input_sizes = &sizes_;
    ctx.theta = theta_;
    ctx.seed = kTrainerSeed;
    RLCutSessionOptions options;
    options.initial = TrainerOptions(threads, 0);
    options.incremental = options.initial;
    {
      obs::TraceSpan span("rlcut.session.open", "rlcut");
      Result<std::unique_ptr<RLCutSession>> opened =
          RLCutSession::Open(ctx, options);
      if (!opened.ok()) {
        rep->failures.push_back("Open: " + opened.status().ToString());
        return;
      }
      session_ = std::move(*opened);
    }
    MigrationBudget budget;
    budget.max_vertices = budget_vertices_;
    double trained = 0;
    double reverted = 0;
    auto reoptimize_and_publish = [&]() -> bool {
      WallTimer cycle;
      Result<ReoptimizeResult> reopt(Status::Internal("not run"));
      {
        obs::TraceSpan span("rlcut.session.reopt", "rlcut");
        reopt = session_->MaybeReoptimize(budget);
      }
      Result<PublishedPlan> plan(Status::Internal("not run"));
      {
        obs::TraceSpan span("rlcut.session.publish", "rlcut");
        if (reopt.ok()) plan = session_->PublishPlan();
      }
      if (!plan.ok()) {
        rep->failures.push_back("reoptimize/publish: " +
                                (reopt.ok() ? plan.status() : reopt.status())
                                    .ToString());
        return false;
      }
      rep->reopt_ms.push_back(cycle.ElapsedMillis());
      trained += static_cast<double>(reopt->trained_vertices);
      reverted += static_cast<double>(reopt->reverted_vertices +
                                      plan->reverted_vertices);
      if (plan->migration.vertices_moved > budget.max_vertices) {
        rep->failures.push_back("publish v" + std::to_string(plan->version) +
                                " exceeds the migration budget");
      }
      return true;
    };
    if (!reoptimize_and_publish()) return;

    const std::vector<TimedEdge>& all = stream_->edges();
    const SimTime window(kBatchSeconds);
    const SimTime end(kHorizonSeconds + 1);
    StreamBuffer buffer;
    SimTime watermark = base_count_ < all.size() ? all[base_count_].time : end;
    uint64_t next = base_count_;
    int since_reopt = 0;
    while (next < all.size()) {
      watermark = std::min(watermark + window, end);
      MicroBatch batch;
      {
        obs::TraceSpan span("graph.stream_cut", "graph");
        for (; next < all.size() && all[next].time <= watermark; ++next) {
          buffer.Push(StreamEvent{all[next], next});
        }
        batch = buffer.Cut(watermark);
      }
      WallTimer apply_timer;
      Result<ApplyResult> applied(Status::Internal("not run"));
      {
        obs::TraceSpan span("rlcut.session.apply", "rlcut");
        applied = session_->ApplyDelta(batch);
      }
      rep->op_ms.push_back(apply_timer.ElapsedMillis());
      if (!applied.ok()) {
        rep->failures.push_back("ApplyDelta: " + applied.status().ToString());
        return;
      }
      if (++since_reopt >= kReoptEvery) {
        since_reopt = 0;
        if (!reoptimize_and_publish()) return;
      }
    }
    if (since_reopt > 0 && !reoptimize_and_publish()) return;

    const StreamBufferStats& stats = buffer.stats();
    if (stats.accepted != stats.sequences_retired + stats.pending) {
      rep->failures.push_back(
          "stream buffer: accepted != retired + pending");
    }
    PartitionReport report;
    {
      obs::TraceSpan span("partition.report", "partition");
      report = MakeReport(*session_->live_state());
    }
    PartitionPlan plan;
    Status saved;
    {
      obs::TraceSpan span("partition.plan_save", "partition");
      plan = ExtractPlan(*session_->live_state());
      saved = SavePlan(plan, plan_path_);
    }
    if (!saved.ok()) rep->failures.push_back("SavePlan: " + saved.ToString());
    rep->fingerprint = MastersFingerprint(plan.masters);
    rep->transfer_ms = report.transfer_seconds * 1e3;
    rep->cost_usd = report.total_cost;
    rep->counts["partition.plan_bytes"] = FileBytes(plan_path_);
    rep->counts["partition.budget_reverted"] = reverted;
    rep->counts["rlcut.session.trained_vertices"] = trained;
  }

  const Config& config_;
  const VertexId vertices_;
  const uint64_t edges_;
  const uint64_t budget_vertices_;
  const std::string plan_path_;
  std::optional<TemporalGraph> stream_;
  uint64_t base_count_ = 0;
  Graph base_;
  Topology topology_;
  std::vector<DcId> locations_;
  std::vector<double> sizes_;
  uint32_t theta_ = 0;
  std::unique_ptr<RLCutSession> session_;
};

// ooc_powerlaw: a power-law graph kept on disk. Every rep renumbers the
// mapped natural-order file into a degree-ordered one, trains through a
// memory-mapped graph under a residency budget, and saves the plan.
class OocWorkload : public Workload {
 public:
  explicit OocWorkload(const Config& config)
      : config_(config),
        vertices_(config.quick ? VertexId{1} << 17 : VertexId{1} << 20),
        edges_(config.quick ? uint64_t{1} << 20 : uint64_t{1} << 23),
        natural_path_(Join(config.work_dir, "natural.rlg")),
        ordered_path_(Join(config.work_dir, "ordered.rlg")),
        plan_path_(Join(config.work_dir, "plan.txt")) {}

  double Setup() override {
    natural_.reset();
    WallTimer timer;
    {
      PowerLawOptions options;
      options.num_vertices = vertices_;
      options.num_edges = edges_;
      options.seed = config_.seed;
      Require(SaveRlgGraph(GeneratePowerLaw(options), natural_path_),
              "write " + natural_path_);
    }
    const double build_s = timer.ElapsedSeconds();
    Result<GraphStore> natural =
        GraphStore::OpenMapped(natural_path_, MmapOptions());
    Require(natural.status(), "open " + natural_path_);
    natural_ = std::move(*natural);
    problem_ = MakeProblem(natural_->graph(), config_.seed);
    return build_s;
  }

  RepResult Rep(int threads) override {
    trained_.reset();
    RepResult rep;
    const uint64_t natural_drops = GovernorDrops(*natural_);
    WallTimer timer;
    {
      obs::TraceSpan rep_span("bench.rep", "bench");
      auto trained = std::make_unique<Trained>();
      {
        obs::TraceSpan span("graph.renumber", "graph");
        trained->perm =
            BuildVertexOrder(natural_->graph(), VertexOrderKind::kDegree);
      }
      Status written;
      {
        obs::TraceSpan span("graph.rlg_write", "graph");
        written = WriteRlgFile(natural_->graph(), &trained->perm, {},
                               ordered_path_);
      }
      Require(written, "write " + ordered_path_);
      {
        obs::TraceSpan span("graph.mmap_open", "graph");
        Result<GraphStore> ordered =
            GraphStore::OpenMapped(ordered_path_, MmapOptions());
        Require(ordered.status(), "open " + ordered_path_);
        trained->store = std::move(*ordered);
      }
      RLCutOptions options = TrainerOptions(threads, problem_.budget);
      options.agent_visit_budget = vertices_ / 8;
      TrainAndSave(trained.get(), problem_, options, nullptr, plan_path_,
                   &rep);
      trained_ = std::move(trained);
    }
    rep.seconds = timer.ElapsedSeconds();
    rep.counts["graph.rlg_bytes"] = FileBytes(ordered_path_);
    rep.counts["graph.mmap_governor_drops"] = static_cast<double>(
        GovernorDrops(trained_->store) + GovernorDrops(*natural_) -
        natural_drops);
    last_ = rep;
    return rep;
  }

  void Verify(Run* run, std::map<std::string, double>* once) override {
    run->Check(last_.cost_usd <= problem_.budget,
               "plan_cost_usd is within the budget B");
    if (once != nullptr) MeasureEvaluator(trained_->state.get(), once, run);
    trained_.reset();
    CheckPlanRoundTrip(plan_path_, natural_->graph(), problem_,
                       last_.transfer_ms, run);
  }

  std::string ArgsJson() const override {
    return "{\"generator\": \"powerlaw\", \"vertices\": " +
           std::to_string(vertices_) + ", \"edges\": " +
           std::to_string(edges_) + ", \"dcs\": " + std::to_string(kNumDcs) +
           ", \"budget_fraction\": " + JsonNumber(kBudgetFraction) +
           ", \"mmap_budget_mib\": " +
           std::to_string(kMmapBudgetBytes >> 20) +
           ", \"agent_visit_budget\": " + std::to_string(vertices_ / 8) +
           ", \"budget_usd\": " + JsonNumber(problem_.budget) + "}";
  }

 private:
  static MmapGraph::Options MmapOptions() {
    MmapGraph::Options options;
    options.budget_bytes = kMmapBudgetBytes;
    return options;
  }

  static uint64_t GovernorDrops(const GraphStore& store) {
    return store.mapped() ? store.mmap_graph()->mapping()->governor_drops()
                          : 0;
  }

  const Config& config_;
  const VertexId vertices_;
  const uint64_t edges_;
  const std::string natural_path_;
  const std::string ordered_path_;
  const std::string plan_path_;
  std::optional<GraphStore> natural_;
  Problem problem_;
  std::unique_ptr<Trained> trained_;
  RepResult last_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"batch_tw", "replica_tw", "serve_diurnal", "ooc_powerlaw"};
}

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "batch_tw") {
    return std::make_unique<TwWorkload>(config, false);
  }
  if (config.workload == "replica_tw") {
    return std::make_unique<TwWorkload>(config, true);
  }
  if (config.workload == "serve_diurnal") {
    return std::make_unique<ServeWorkload>(config);
  }
  if (config.workload == "ooc_powerlaw") {
    return std::make_unique<OocWorkload>(config);
  }
  return nullptr;
}

}  // namespace rlcut::bench
