#include "baselines/partitioner.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlcut {

Result<PartitionOutput> Partitioner::Run(const PartitionerContext& ctx) {
  RLCUT_RETURN_IF_ERROR(ValidatePartitionerContext(ctx));
  obs::TraceSpan span("partition/run", "partition");
  span.AddArg("num_vertices", static_cast<double>(ctx.graph->num_vertices()));
  span.AddArg("num_dcs", static_cast<double>(ctx.topology->num_dcs()));
  PartitionOutput out = DoRun(ctx);
  span.AddArg("overhead_seconds", out.overhead_seconds);
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  const obs::LabelSet method_label = {{"method", name()}};
  registry.GetCounter("partitioner.runs", method_label)->Increment();
  registry.GetHistogram("partitioner.overhead_seconds", method_label)
      ->Observe(out.overhead_seconds);
  return out;
}

PartitionOutput Partitioner::RunOrDie(const PartitionerContext& ctx) {
  Result<PartitionOutput> result = Run(ctx);
  RLCUT_CHECK(result.ok()) << name() << ": " << result.status().ToString();
  return std::move(result).value();
}

// ---- OneShotSession ----------------------------------------------------

OneShotSession::OneShotSession(std::unique_ptr<Partitioner> partitioner,
                               const PartitionerContext& ctx)
    : PartitioningSession(ctx, partitioner->model()),
      partitioner_(std::move(partitioner)) {}

Result<std::unique_ptr<OneShotSession>> OneShotSession::Open(
    std::unique_ptr<Partitioner> partitioner, const PartitionerContext& ctx) {
  if (partitioner == nullptr) {
    return Status::InvalidArgument("OneShotSession: partitioner is null");
  }
  RLCUT_RETURN_IF_ERROR(ValidatePartitionerContext(ctx));
  return std::unique_ptr<OneShotSession>(
      new OneShotSession(std::move(partitioner), ctx));
}

void OneShotSession::Adapt(std::vector<VertexId> /*eligible*/,
                           bool /*first_pass*/) {
  // The method's state points at this session's problem copies, which
  // keep their addresses.
  *state_ = partitioner_->DoRun(context()).state;
}

}  // namespace rlcut
