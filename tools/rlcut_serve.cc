// rlcut_serve: long-running streaming partitioning daemon.
//
// Consumes a high-rate temporal edge stream (the diurnal generator of
// graph/temporal.h standing in for a production feed), applies it to a
// live PartitioningSession in micro-batches, and triggers incremental
// re-optimization on a cadence under a configurable migration budget —
// the serving-path counterpart of the batch rlcut_tool. Every publish
// versions the plan; --plan_out keeps the latest plan on disk and
// --checkpoint makes the whole session crash-restartable.
//
//   rlcut_serve --vertices=8192 --edges=65536 --batch_seconds=600
//   rlcut_serve --method=RLCut --budget_vertices=256 --budget_mb=64
//   rlcut_serve --net_drift=0.3 --checkpoint=/tmp/serve.ckpt
//   rlcut_serve --faults='session.ingest_fail:nth=3,max=2'
//   rlcut_serve --replica_endpoint=127.0.0.1:7070   # + rlcut_replica
//
// Transient ingest/publish failures are retried under the shared
// net::RetryPolicy (bounded attempts, jittered exponential backoff);
// retry pressure is reported in the summary. SIGINT and SIGTERM drain
// cleanly: the current batch finishes, a final plan is published, and
// the summary (sustained edges/sec, p99 micro-batch apply latency,
// state rebuilds) is printed. Exits non-zero if no plan was published,
// or if a replica endpoint was attached and did not converge by drain
// time.

#include <csignal>
#include <cstdio>
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "baselines/partitioner.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/flags.h"
#include "common/sim_time.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "graph/geo.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "net/replica_service.h"
#include "net/retry.h"
#include "obs/metrics.h"
#include "partition/plan_io.h"
#include "rlcut/session.h"

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
// Mirror for the RetryCall cancel hook (std::atomic<bool> is lock-free
// here, so storing from the handler is async-signal-safe).
std::atomic<bool> g_cancel{false};

void HandleStopSignal(int) {
  g_interrupted = 1;
  g_cancel.store(true, std::memory_order_relaxed);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(q * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  rlcut::FlagParser flags;
  flags.DefineInt("vertices", 8192, "vertex-set size (fixed up front)");
  flags.DefineInt("edges", 65536, "total edges in the temporal stream");
  flags.DefineDouble("horizon", 24 * 3600.0,
                     "stream horizon, simulated seconds");
  flags.DefineDouble("batch_seconds", 600.0,
                     "micro-batch window, simulated seconds");
  flags.DefineInt("reopt_every", 3,
                  "re-optimize + publish every N micro-batches");
  flags.DefineInt("budget_vertices", 256,
                  "max vertices moved per publish (0 = unlimited)");
  flags.DefineDouble("budget_mb", 64.0,
                     "max megabytes moved per publish (0 = unlimited)");
  flags.DefineInt("dcs", 4, "data centers");
  flags.DefineInt("seed", 1, "base RNG seed");
  flags.DefineString("method", "RLCut",
                     "partitioner registry name; RLCut and Spinner "
                     "serve incrementally, other methods re-partition "
                     "cold");
  flags.DefineInt("max_batches", 0,
                  "stop after N micro-batches (0 = run to the horizon)");
  flags.DefineString("plan_out", "",
                     "keep the latest published plan at this path");
  flags.DefineString("checkpoint", "",
                     "checkpoint the session here after every publish "
                     "(RLCut only)");
  flags.DefineString("faults", "",
                     "fault schedule spec, e.g. "
                     "'session.ingest_fail:prob=0.1' (see docs/robustness.md)");
  flags.DefineString("replica_endpoint", "",
                     "replicate every published plan to a rlcut_replica "
                     "worker at host:port (see docs/distributed.md)");
  flags.DefineDouble("net_drift", 0.0,
                     "diurnal bandwidth-drift amplitude (0 disables "
                     "topology events; RLCut only)");
  flags.DefineDouble("t_opt", 0.0,
                     "per-pass wall-clock training budget, seconds");
  flags.DefineBool("quiet", false, "suppress per-publish lines");
  if (rlcut::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  const bool quiet = flags.GetBool("quiet");

  rlcut::fault::FaultSchedule schedule;
  const std::string fault_spec = flags.GetString("faults");
  if (!fault_spec.empty()) {
    std::string error;
    if (!rlcut::fault::FaultSchedule::Parse(
            fault_spec, static_cast<uint64_t>(flags.GetInt("seed")),
            &schedule, &error)) {
      std::fprintf(stderr, "bad --faults: %s\n", error.c_str());
      return 2;
    }
    rlcut::fault::Arm(schedule);
  }

  // The stream: a day of diurnal-rate edge arrivals. The first fifth
  // seeds the base graph the session opens over; the rest arrives live.
  rlcut::TemporalStreamOptions stream_options;
  stream_options.num_vertices =
      static_cast<rlcut::VertexId>(flags.GetInt("vertices"));
  stream_options.num_edges = static_cast<uint64_t>(flags.GetInt("edges"));
  stream_options.horizon_seconds = flags.GetDouble("horizon");
  stream_options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const rlcut::TemporalGraph temporal =
      rlcut::GenerateDiurnalStream(stream_options);
  const uint64_t base_count = temporal.edges().size() / 5;
  const rlcut::Graph base_graph = temporal.Prefix(base_count);

  const int num_dcs = static_cast<int>(flags.GetInt("dcs"));
  const rlcut::Topology base_topology =
      rlcut::MakeEc2Topology(num_dcs, rlcut::Heterogeneity::kMedium);
  rlcut::GeoLocatorOptions geo;
  geo.num_dcs = num_dcs;
  geo.seed = stream_options.seed + 101;
  const std::vector<rlcut::DcId> locations =
      rlcut::AssignGeoLocations(base_graph, geo);
  const std::vector<double> sizes = rlcut::AssignInputSizes(base_graph);

  rlcut::PartitionerContext ctx;
  ctx.graph = &base_graph;
  ctx.topology = &base_topology;
  ctx.locations = &locations;
  ctx.input_sizes = &sizes;
  ctx.theta = rlcut::PartitionState::AutoTheta(base_graph);
  ctx.seed = stream_options.seed;

  rlcut::SessionOptions session_options;
  session_options.partitioner.t_opt_seconds = flags.GetDouble("t_opt");
  rlcut::Result<std::unique_ptr<rlcut::PartitioningSession>> opened =
      rlcut::OpenPartitioningSession(flags.GetString("method"), ctx,
                                     session_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open session: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<rlcut::PartitioningSession> session = std::move(*opened);
  // The incremental extras (topology drift, checkpointing) only exist
  // on the RLCut session; other methods still serve through the same
  // PartitioningSession interface.
  auto* rlcut_session = dynamic_cast<rlcut::RLCutSession*>(session.get());

  const double net_drift = flags.GetDouble("net_drift");
  rlcut::TopologySchedule drift_schedule;
  if (net_drift > 0) {
    if (rlcut_session == nullptr) {
      std::fprintf(stderr,
                   "--net_drift requires --method=RLCut; ignoring\n");
    } else {
      // One simulated second per schedule step; events every 1/8 of a
      // diurnal period.
      const int horizon_steps =
          static_cast<int>(stream_options.horizon_seconds);
      drift_schedule = rlcut::MakeDiurnalDriftSchedule(
          base_topology, horizon_steps / 4, net_drift, horizon_steps);
    }
  }
  const std::string checkpoint_path = flags.GetString("checkpoint");
  if (!checkpoint_path.empty() && rlcut_session == nullptr) {
    std::fprintf(stderr, "--checkpoint requires --method=RLCut\n");
    return 2;
  }

  // Optional process-split replica: every published plan is shipped to
  // a rlcut_replica worker as one delta; failures degrade, never stall.
  const std::string replica_endpoint = flags.GetString("replica_endpoint");
  std::unique_ptr<rlcut::net::ReplicaClient> replica_client;
  if (!replica_endpoint.empty()) {
    rlcut::net::ReplicaClientOptions client_options;
    client_options.retry.seed =
        static_cast<uint64_t>(flags.GetInt("seed"));
    replica_client = std::make_unique<rlcut::net::ReplicaClient>(
        rlcut::net::ReplicaClient::TcpConnector(
            replica_endpoint, client_options.dial_timeout_ms),
        client_options);
    session->SetReplicaSink(replica_client.get());
  }

  rlcut::MigrationBudget budget = rlcut::MigrationBudget::Unlimited();
  if (flags.GetInt("budget_vertices") > 0) {
    budget.max_vertices = static_cast<uint64_t>(
        flags.GetInt("budget_vertices"));
  }
  if (flags.GetDouble("budget_mb") > 0) {
    budget.max_bytes = flags.GetDouble("budget_mb") * 1e6;
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  const std::string plan_out = flags.GetString("plan_out");
  const int reopt_every =
      std::max<int>(1, static_cast<int>(flags.GetInt("reopt_every")));
  const int64_t max_batches = flags.GetInt("max_batches");

  uint64_t publishes = 0;
  uint64_t published_fingerprint = rlcut::MastersFingerprint({});
  uint64_t edges_ingested = 0;
  uint64_t vertices_migrated = 0;
  uint64_t ingest_errors = 0;
  uint64_t publish_errors = 0;
  std::vector<double> apply_seconds;
  double ingest_wall_seconds = 0;

  // One shared policy for both transient-failure loops (ingest and
  // publish); op ids keep their jitter streams decorrelated.
  rlcut::net::RetryPolicy retry_policy;
  retry_policy.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  uint64_t retry_op_id = 0;

  auto reoptimize_and_publish = [&]() -> bool {
    rlcut::Result<rlcut::ReoptimizeResult> reopt =
        session->MaybeReoptimize(budget);
    if (!reopt.ok()) {
      std::fprintf(stderr, "reoptimize: %s\n",
                   reopt.status().ToString().c_str());
      return false;
    }
    rlcut::Result<rlcut::PublishedPlan> plan(
        rlcut::Status::Internal("never published"));
    rlcut::net::RetryOutcome outcome;
    const rlcut::Status published = rlcut::net::RetryCall(
        retry_policy, ++retry_op_id, "serve.publish",
        [&]() -> rlcut::Status {
          plan = session->PublishPlan();
          return plan.ok() ? rlcut::Status::Ok() : plan.status();
        },
        &g_cancel, &outcome);
    publish_errors += static_cast<uint64_t>(outcome.attempts - 1);
    if (!published.ok()) {
      std::fprintf(stderr, "publish: %s\n", published.ToString().c_str());
      return false;
    }
    ++publishes;
    published_fingerprint = rlcut::MastersFingerprint(plan->masters);
    vertices_migrated += plan->migration.vertices_moved;
    if (!quiet) {
      std::printf("publish v%llu: objective %gs, moved %llu vertices "
                  "(%.2f MB), %llu reverted by budget\n",
                  static_cast<unsigned long long>(plan->version),
                  plan->objective.transfer_seconds,
                  static_cast<unsigned long long>(
                      plan->migration.vertices_moved),
                  plan->migration.bytes_moved / 1e6,
                  static_cast<unsigned long long>(plan->reverted_vertices));
    }
    if (!plan_out.empty()) {
      const rlcut::PartitionState* state = session->live_state();
      if (state != nullptr) {
        if (rlcut::Status saved =
                rlcut::SavePlan(rlcut::ExtractPlan(*state), plan_out);
            !saved.ok()) {
          std::fprintf(stderr, "save plan: %s\n",
                       saved.ToString().c_str());
        }
      }
    }
    if (!checkpoint_path.empty() && rlcut_session != nullptr) {
      if (rlcut::Status saved =
              rlcut_session->SaveCheckpoint(checkpoint_path);
          !saved.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n", saved.ToString().c_str());
      }
    }
    return true;
  };

  // Warm up: train the base graph and publish plan v1 before ingesting.
  if (!reoptimize_and_publish()) return 1;

  rlcut::StreamBuffer buffer;
  const std::vector<rlcut::TimedEdge>& all = temporal.edges();
  const rlcut::SimTime batch_window(flags.GetDouble("batch_seconds"));
  const rlcut::SimTime horizon(stream_options.horizon_seconds);
  rlcut::SimTime watermark =
      base_count < all.size() ? all[base_count].time : horizon;
  uint64_t next_edge = base_count;
  int64_t batches = 0;
  int batches_since_reopt = 0;
  rlcut::WallTimer run_timer;

  while (!g_interrupted && next_edge < all.size() &&
         (max_batches <= 0 || batches < max_batches)) {
    watermark =
        std::min(watermark + batch_window, horizon + rlcut::SimTime(1));
    while (next_edge < all.size() && all[next_edge].time <= watermark) {
      buffer.Push(rlcut::StreamEvent{all[next_edge], next_edge});
      ++next_edge;
    }
    const rlcut::MicroBatch batch = buffer.Cut(watermark);
    rlcut::WallTimer apply_timer;
    rlcut::Result<rlcut::ApplyResult> applied(
        rlcut::Status::Internal("never applied"));
    rlcut::net::RetryOutcome outcome;
    const rlcut::Status ingested = rlcut::net::RetryCall(
        retry_policy, ++retry_op_id, "serve.ingest",
        [&]() -> rlcut::Status {
          applied = session->ApplyDelta(batch);
          return applied.ok() ? rlcut::Status::Ok() : applied.status();
        },
        &g_cancel, &outcome);
    ingest_errors += static_cast<uint64_t>(outcome.attempts - 1);
    if (!ingested.ok()) {
      std::fprintf(stderr, "ingest: %s\n", ingested.ToString().c_str());
      return 1;
    }
    const double elapsed = apply_timer.ElapsedSeconds();
    apply_seconds.push_back(elapsed);
    ingest_wall_seconds += elapsed;
    edges_ingested += applied->edges_applied;
    ++batches;

    if (rlcut_session != nullptr && net_drift > 0 &&
        drift_schedule.ChangedBetween(watermark - batch_window,
                                      watermark)) {
      rlcut::Result<rlcut::TopologyUpdateResult> updated =
          rlcut_session->UpdateTopology(
              drift_schedule.EffectiveAt(watermark));
      if (!updated.ok()) {
        std::fprintf(stderr, "topology update: %s\n",
                     updated.status().ToString().c_str());
        return 1;
      }
      if (!quiet && updated->affected_marked > 0) {
        std::printf("topology drift %.3f marked %llu vertices\n",
                    updated->drift,
                    static_cast<unsigned long long>(
                        updated->affected_marked));
      }
    }

    if (++batches_since_reopt >= reopt_every) {
      batches_since_reopt = 0;
      if (!reoptimize_and_publish()) return 1;
    }
  }

  // Drain: publish whatever the final batches accumulated.
  if (batches_since_reopt > 0 && !reoptimize_and_publish()) return 1;
  rlcut::fault::Disarm();

  const double wall = run_timer.ElapsedSeconds();
  const double sustained =
      ingest_wall_seconds > 0 ? edges_ingested / ingest_wall_seconds : 0;
  // An apply only buffers its batch; the session re-derives its state
  // at the next reader, so the rebuilds are reported beside the apply
  // latency.
  rlcut::obs::MetricsRegistry& registry = rlcut::obs::DefaultRegistry();
  std::printf(
      "served %lld micro-batches in %.2fs wall%s: %llu edges ingested "
      "(%.0f edges/sec sustained), %llu publishes, %llu vertices "
      "migrated, p99 apply %.2fms, %llu state rebuilds (%.2fs), %llu "
      "ingest / %llu publish errors retried\n",
      static_cast<long long>(batches), wall,
      g_interrupted ? " (interrupted)" : "",
      static_cast<unsigned long long>(edges_ingested), sustained,
      static_cast<unsigned long long>(publishes),
      static_cast<unsigned long long>(vertices_migrated),
      Percentile(apply_seconds, 0.99) * 1e3,
      static_cast<unsigned long long>(
          registry.GetCounter("serve.state_rebuilds")->value()),
      registry.GetHistogram("serve.rebuild_seconds")->sum(),
      static_cast<unsigned long long>(ingest_errors),
      static_cast<unsigned long long>(publish_errors));

  // Retry pressure and replica-link health, from the shared registry
  // (RetryCall and ReplicaClient record their counters there).
  for (const rlcut::obs::MetricSample& sample : registry.Snapshot()) {
    const bool relevant = sample.name.rfind("retry.", 0) == 0 ||
                          sample.name.rfind("net.client.", 0) == 0;
    if (relevant && sample.value > 0) {
      std::printf("metric %s: %.0f\n", sample.name.c_str(), sample.value);
    }
  }
  if (replica_client != nullptr) {
    const rlcut::Status replica_status = session->replica_status();
    std::printf(
        "replica %s: %s%s, published v%llu fingerprint %016llx, mirror "
        "v%llu, %llu resyncs, %llu reconnects\n",
        replica_endpoint.c_str(),
        replica_status.ok() ? "synced" : replica_status.ToString().c_str(),
        session->replica_degraded() ? " (was degraded)" : "",
        static_cast<unsigned long long>(session->version()),
        static_cast<unsigned long long>(published_fingerprint),
        static_cast<unsigned long long>(replica_client->mirror_version()),
        static_cast<unsigned long long>(replica_client->resyncs()),
        static_cast<unsigned long long>(replica_client->reconnects()));
    replica_client->CloseConnection();
    // Fail closed: a daemon asked to maintain a replica must not exit
    // clean while the far side is behind.
    if (!replica_status.ok()) return 1;
  }

  const rlcut::StreamBufferStats& buffer_stats = buffer.stats();
  std::printf(
      "stream buffer: %llu accepted, %llu retired, %llu pending, "
      "%llu duplicates dropped, %llu late\n",
      static_cast<unsigned long long>(buffer_stats.accepted),
      static_cast<unsigned long long>(buffer_stats.sequences_retired),
      static_cast<unsigned long long>(buffer_stats.pending),
      static_cast<unsigned long long>(buffer_stats.duplicates_dropped),
      static_cast<unsigned long long>(buffer_stats.late_deferred));
  // Dedup state is bounded by the in-flight window: every accepted
  // sequence id must be retired (shipped in a cut) or still pending. A
  // violation means the buffer is leaking ids — the unbounded-memory
  // failure mode a long-lived daemon cannot tolerate.
  if (buffer_stats.accepted !=
      buffer_stats.sequences_retired + buffer_stats.pending) {
    std::fprintf(stderr,
                 "stream buffer leaked dedup state: accepted %llu != "
                 "retired %llu + pending %llu\n",
                 static_cast<unsigned long long>(buffer_stats.accepted),
                 static_cast<unsigned long long>(
                     buffer_stats.sequences_retired),
                 static_cast<unsigned long long>(buffer_stats.pending));
    return 1;
  }
  return publishes > 0 ? 0 : 1;
}
