#include "partition/session.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "graph/geo.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlcut {
namespace {

// The one micro-batch validation every session kind shares.
Status ValidateMicroBatch(const MicroBatch& batch, VertexId num_vertices,
                          SimTime watermark) {
  if (batch.watermark < watermark) {
    return Status::InvalidArgument(
        "micro-batch watermark moved backwards: " +
        std::to_string(batch.watermark.seconds()) + "s after " +
        std::to_string(watermark.seconds()) + "s");
  }
  SimTime prev = SimTime::Min();
  for (const TimedEdge& te : batch.edges) {
    if (te.edge.src >= num_vertices || te.edge.dst >= num_vertices) {
      return Status::OutOfRange(
          "micro-batch edge (" + std::to_string(te.edge.src) + ", " +
          std::to_string(te.edge.dst) + ") outside the fixed vertex set of " +
          std::to_string(num_vertices));
    }
    if (te.time < prev) {
      return Status::InvalidArgument(
          "micro-batch edges are not sorted by time (see "
          "StreamBuffer::Cut, which emits deterministic sorted batches)");
    }
    if (te.time > batch.watermark) {
      return Status::InvalidArgument(
          "micro-batch contains an edge past its watermark");
    }
    prev = te.time;
  }
  return Status::Ok();
}

uint64_t EdgeKey(VertexId src, VertexId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

}  // namespace

Status ValidatePartitionerContext(const PartitionerContext& ctx) {
  if (ctx.graph == nullptr) {
    return Status::InvalidArgument("PartitionerContext: graph is null");
  }
  if (ctx.topology == nullptr) {
    return Status::InvalidArgument("PartitionerContext: topology is null");
  }
  if (ctx.locations == nullptr) {
    return Status::InvalidArgument("PartitionerContext: locations is null");
  }
  if (ctx.input_sizes == nullptr) {
    return Status::InvalidArgument("PartitionerContext: input_sizes is null");
  }
  const size_t n = ctx.graph->num_vertices();
  if (ctx.locations->size() != n) {
    return Status::InvalidArgument(
        "PartitionerContext: locations covers " +
        std::to_string(ctx.locations->size()) + " vertices but the graph has " +
        std::to_string(n));
  }
  if (ctx.input_sizes->size() != n) {
    return Status::InvalidArgument(
        "PartitionerContext: input_sizes covers " +
        std::to_string(ctx.input_sizes->size()) +
        " vertices but the graph has " + std::to_string(n));
  }
  const int num_dcs = ctx.topology->num_dcs();
  if (num_dcs < 1 || num_dcs > kMaxDataCenters) {
    return Status::InvalidArgument("PartitionerContext: topology has " +
                                   std::to_string(num_dcs) +
                                   " DCs, expected 1.." +
                                   std::to_string(kMaxDataCenters));
  }
  for (size_t v = 0; v < n; ++v) {
    const DcId loc = (*ctx.locations)[v];
    if (loc < 0 || loc >= num_dcs) {
      return Status::InvalidArgument(
          "PartitionerContext: vertex " + std::to_string(v) +
          " located at DC " + std::to_string(loc) +
          " outside the topology's " + std::to_string(num_dcs) + " DCs");
    }
  }
  if (ctx.budget < 0) {
    return Status::InvalidArgument("PartitionerContext: negative budget " +
                                   std::to_string(ctx.budget));
  }
  return Status::Ok();
}

// ---- PartitioningSession ------------------------------------------------

PartitioningSession::PartitioningSession(const PartitionerContext& ctx,
                                         ComputeModel model)
    : num_vertices_(ctx.graph->num_vertices()),
      topology_(*ctx.topology),
      locations_(*ctx.locations),
      input_sizes_(*ctx.input_sizes),
      workload_(ctx.workload),
      theta_(ctx.theta),
      cost_budget_(ctx.budget),
      seed_(ctx.seed),
      graph_(std::make_unique<Graph>(*ctx.graph)),
      affected_flags_(num_vertices_, 0),
      last_published_masters_(locations_) {
  edges_.reserve(ctx.graph->num_edges());
  for (EdgeId e = 0; e < ctx.graph->num_edges(); ++e) {
    edges_.push_back(ctx.graph->GetEdge(e));
  }
  BuildState(model);
}

void PartitioningSession::BuildLiveState(ComputeModel model,
                                         const std::vector<DcId>& masters) {
  GraphBuilder builder(num_vertices_);
  builder.AddEdges(edges_);
  graph_ = std::make_unique<Graph>(std::move(builder).Build());
  BuildState(model);
  state_->ResetDerived(masters);
}

void PartitioningSession::BuildState(ComputeModel model) {
  PartitionConfig config;
  config.model = model;
  config.theta = theta_;
  config.workload = workload_;
  state_ = std::make_unique<PartitionState>(graph_.get(), &topology_,
                                            &locations_, &input_sizes_,
                                            config);
}

PartitionerContext PartitioningSession::context() const {
  PartitionerContext ctx;
  ctx.graph = graph_.get();
  ctx.topology = &topology_;
  ctx.locations = &locations_;
  ctx.input_sizes = &input_sizes_;
  ctx.workload = workload_;
  ctx.theta = theta_;
  ctx.budget = cost_budget_;
  ctx.seed = seed_;
  return ctx;
}

void PartitioningSession::Refresh() const {
  if (!stale_) return;
  obs::TraceSpan span("session/rebuild", "session");
  WallTimer timer;
  // Edge ids change with the rebuild, so an explicit placement is
  // carried by (src, dst), one placement per occurrence.
  std::unordered_map<uint64_t, std::vector<DcId>> carried;
  if (!state_->derived_placement()) {
    for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
      carried[EdgeKey(graph_->EdgeSource(e), graph_->EdgeTarget(e))]
          .push_back(state_->edge_dc(e));
    }
  }
  GraphBuilder builder(num_vertices_);
  builder.AddEdges(edges_);
  std::move(builder).BuildInto(graph_.get());
  input_sizes_ = AssignInputSizes(*graph_);
  state_->RefreshGraph();
  if (!state_->derived_placement()) {
    // Edges new to the log find nothing carried and stay unplaced.
    for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
      auto it =
          carried.find(EdgeKey(graph_->EdgeSource(e), graph_->EdgeTarget(e)));
      if (it == carried.end() || it->second.empty()) continue;
      const DcId dc = it->second.back();
      it->second.pop_back();
      if (dc != kNoDc) state_->PlaceEdge(e, dc);
    }
  }
  stale_ = false;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("serve.state_rebuilds")->Increment();
  registry.GetHistogram("serve.rebuild_seconds")
      ->Observe(timer.ElapsedSeconds());
}

uint64_t PartitioningSession::MarkChanged(std::vector<VertexId> endpoints) {
  if (endpoints.empty()) return 0;
  for (VertexId v : endpoints) affected_flags_[v] = 1;
  stale_ = true;  // the next reader re-derives the live state
  std::sort(endpoints.begin(), endpoints.end());
  endpoints.erase(std::unique(endpoints.begin(), endpoints.end()),
                  endpoints.end());
  return endpoints.size();
}

Result<ApplyResult> PartitioningSession::ApplyDelta(const MicroBatch& batch) {
  if (fault::ShouldFire("session.ingest_fail")) {
    return Status::Internal("injected fault: session.ingest_fail");
  }
  RLCUT_RETURN_IF_ERROR(ValidateMicroBatch(batch, num_vertices_, watermark_));
  WallTimer timer;
  std::vector<VertexId> endpoints;
  endpoints.reserve(batch.edges.size() * 2);
  for (const TimedEdge& te : batch.edges) {
    edges_.push_back(te.edge);
    endpoints.push_back(te.edge.src);
    endpoints.push_back(te.edge.dst);
  }
  ApplyResult result;
  result.edges_applied = batch.edges.size();
  result.vertices_affected = MarkChanged(std::move(endpoints));
  watermark_ = batch.watermark;
  result.apply_seconds = timer.ElapsedSeconds();
  result.watermark = watermark_;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("serve.edges_ingested")
      ->Increment(result.edges_applied);
  registry.GetHistogram("serve.apply_seconds")->Observe(result.apply_seconds);
  return result;
}

Result<ApplyResult> PartitioningSession::RemoveEdges(
    const std::vector<Edge>& edges) {
  std::unordered_map<uint64_t, uint64_t> to_remove;
  for (const Edge& e : edges) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) {
      return Status::OutOfRange(
          "edge removal (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") outside the fixed vertex set of " +
          std::to_string(num_vertices_));
    }
    ++to_remove[EdgeKey(e.src, e.dst)];
  }
  WallTimer timer;
  std::vector<VertexId> endpoints;
  size_t kept = 0;
  for (const Edge& e : edges_) {
    auto it = to_remove.find(EdgeKey(e.src, e.dst));
    if (it != to_remove.end() && it->second > 0) {
      --it->second;
      endpoints.push_back(e.src);
      endpoints.push_back(e.dst);
      continue;
    }
    edges_[kept++] = e;
  }
  ApplyResult result;
  result.edges_applied = edges_.size() - kept;
  edges_.resize(kept);
  result.vertices_affected = MarkChanged(std::move(endpoints));
  result.apply_seconds = timer.ElapsedSeconds();
  result.watermark = watermark_;
  return result;
}

Result<ReoptimizeResult> PartitioningSession::MaybeReoptimize(
    const MigrationBudget& budget) {
  obs::TraceSpan span("session/reoptimize", "session");
  Refresh();
  ReoptimizeResult result;
  last_budget_ = budget;
  const bool first_pass = !reoptimized_once_;
  std::vector<VertexId> eligible;
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (first_pass || affected_flags_[v]) eligible.push_back(v);
  }
  std::fill(affected_flags_.begin(), affected_flags_.end(), 0);
  if (eligible.empty()) {
    result.objective = state_->CurrentObjective();
    return result;
  }
  WallTimer timer;
  result.trained_vertices = eligible.size();
  Adapt(std::move(eligible), first_pass);
  const BudgetClampResult clamp = EnforceMigrationBudget(
      state_.get(), last_published_masters_, input_sizes_, budget);
  reoptimized_once_ = true;
  result.reoptimized = true;
  result.reverted_vertices = clamp.reverted;
  result.overhead_seconds = timer.ElapsedSeconds();
  result.objective = state_->CurrentObjective();
  span.AddArg("trained", static_cast<double>(result.trained_vertices));
  span.AddArg("reverted", static_cast<double>(result.reverted_vertices));
  obs::DefaultRegistry().GetCounter("serve.reopt_runs")->Increment();
  return result;
}

Result<PublishedPlan> PartitioningSession::PublishPlan() {
  if (fault::ShouldFire("session.publish_fail")) {
    return Status::Internal("injected fault: session.publish_fail");
  }
  if (!reoptimized_once_) {
    return Status::FailedPrecondition(
        "no plan to publish: MaybeReoptimize must succeed first");
  }
  Refresh();
  PublishedPlan plan;
  const BudgetClampResult clamp = EnforceMigrationBudget(
      state_.get(), last_published_masters_, input_sizes_, last_budget_);
  plan.reverted_vertices = clamp.reverted;
  plan.masters = state_->masters();
  plan.migration = PlanMigration(last_published_masters_, plan.masters,
                                 input_sizes_, topology_);
  plan.objective = state_->CurrentObjective();
  plan.version = ++version_;
  if (replica_sink_ != nullptr) {
    PlanDelta delta;
    delta.base_version = replica_sink_->version();
    for (VertexId v = 0; v < num_vertices_; ++v) {
      if (plan.masters[v] != last_published_masters_[v]) {
        delta.moves.push_back(
            PlanMove{v, last_published_masters_[v], plan.masters[v]});
      }
    }
    FlushReplica(replica_sink_->PushDelta(delta));
  }
  last_published_masters_ = plan.masters;
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  registry.GetCounter("serve.publishes")->Increment();
  registry.GetGauge("serve.plan_version")
      ->Set(static_cast<double>(version_));
  return plan;
}

void PartitioningSession::SetReplicaSink(ReplicaSink* sink) {
  replica_sink_ = sink;
  replica_status_ = Status::Ok();
  replica_degraded_ = false;
  if (sink == nullptr) return;
  FlushReplica(sink->Begin(
      PlanSnapshot{version_, topology_.num_dcs(), last_published_masters_}));
}

void PartitioningSession::FlushReplica(const Status& handed_over) {
  if (!handed_over.ok()) {
    // The sink refused the plan itself, not the network: the version
    // chain is broken, so stop feeding it and fail closed.
    replica_status_ = handed_over;
    replica_sink_ = nullptr;
    return;
  }
  replica_degraded_ = replica_degraded_ || replica_sink_->degraded();
  replica_status_ = replica_sink_->Flush();
  replica_degraded_ = replica_degraded_ || replica_sink_->degraded();
}

BudgetClampResult EnforceMigrationBudget(
    PartitionState* state, const std::vector<DcId>& baseline,
    const std::vector<double>& input_sizes, const MigrationBudget& budget) {
  const VertexId n = state->graph().num_vertices();
  RLCUT_CHECK_EQ(baseline.size(), n);
  RLCUT_CHECK_EQ(input_sizes.size(), n);

  auto tally = [&](BudgetClampResult* out, std::vector<VertexId>* moved) {
    out->vertices_moved = 0;
    out->bytes_moved = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (state->master(v) == baseline[v]) continue;
      ++out->vertices_moved;
      out->bytes_moved += input_sizes[v];
      if (moved != nullptr) moved->push_back(v);
    }
  };

  BudgetClampResult clamp;
  std::vector<VertexId> moved;
  tally(&clamp, &moved);
  if (clamp.vertices_moved <= budget.max_vertices &&
      clamp.bytes_moved <= budget.max_bytes) {
    return clamp;
  }

  // Rank every move by how much reverting it costs, against the current
  // state (sort-once greedy: deltas are not re-evaluated as reverts
  // land, keeping the clamp deterministic and O(moved * deg * M)).
  // Explicit (vertex-cut) placements have no what-if evaluation and move
  // masters with SetMaster, so there a revert is tried and undone.
  const bool derived = state->derived_placement();
  const auto revert = [state, derived](VertexId v, DcId to) {
    if (derived) {
      state->MoveMaster(v, to);
    } else {
      state->SetMaster(v, to);
    }
  };
  struct Candidate {
    double delta;
    VertexId v;
  };
  std::vector<Candidate> order;
  order.reserve(moved.size());
  EvalScratch scratch;
  const double current = state->CurrentObjective().transfer_seconds;
  for (VertexId v : moved) {
    double reverted = 0;
    if (derived) {
      reverted = state->EvaluateMove(v, baseline[v], &scratch).transfer_seconds;
    } else {
      const DcId from = state->master(v);
      state->SetMaster(v, baseline[v]);
      reverted = state->CurrentObjective().transfer_seconds;
      state->SetMaster(v, from);
    }
    order.push_back({reverted - current, v});
  }
  std::sort(order.begin(), order.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.delta != b.delta) return a.delta < b.delta;
              return a.v < b.v;
            });

  uint64_t vertices_left = clamp.vertices_moved;
  double bytes_left = clamp.bytes_moved;
  for (const Candidate& c : order) {
    if (vertices_left <= budget.max_vertices &&
        bytes_left <= budget.max_bytes) {
      break;
    }
    revert(c.v, baseline[c.v]);
    --vertices_left;
    bytes_left -= input_sizes[c.v];
    ++clamp.reverted;
  }
  // Re-tally from the state: the incremental byte total above carries
  // floating-point residue that must not leak into budget reporting.
  tally(&clamp, nullptr);
  return clamp;
}

}  // namespace rlcut
