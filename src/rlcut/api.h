#ifndef RLCUT_RLCUT_API_H_
#define RLCUT_RLCUT_API_H_

/// Umbrella header: the library's public surface in one include.
///
/// Pulls in everything an application needs to go from a graph to an
/// evaluated geo-distributed partition:
///
///  * graphs       — SNAP edge-list loading (graph/io.h), the paper's
///                   dataset presets (graph/datasets.h), synthetic
///                   generators (graph/generators.h) and geo-scattering
///                   of vertices over DCs (graph/geo.h);
///  * streams      — the shared SimTime timeline (common/sim_time.h),
///                   temporal edge streams (graph/temporal.h) and the
///                   reorder/dedup buffer that turns out-of-order
///                   arrivals into deterministic micro-batches
///                   (graph/stream.h);
///  * topologies   — EC2-profile presets and custom data-center
///                   topologies (cloud/topology.h), plus time-varying
///                   network schedules for dynamic-environment runs
///                   (cloud/topology_schedule.h);
///  * partitioners — the string-keyed registry (ListPartitioners /
///                   MakePartitionerByName) and the unified fallible
///                   Partitioner::Run API (baselines/partitioner.h),
///                   plus direct access to RLCut's trainer-level output
///                   (rlcut/rlcut_partitioner.h) and trainer
///                   checkpoint/resume (rlcut/checkpoint.h);
///  * sessions     — the one class that owns an evolving problem,
///                   PartitioningSession (partition/session.h): Open ->
///                   ApplyDelta / RemoveEdges -> MaybeReoptimize(budget)
///                   -> PublishPlan. OpenPartitioningSession opens one by
///                   registry name: RLCut's incremental, checkpointable
///                   RLCutSession (rlcut/session.h), the incremental
///                   SpinnerSession, or a OneShotSession that re-runs any
///                   other method cold; LeopardSession
///                   (baselines/leopard.h) is opened directly
///                   (docs/streaming.md walks through the whole loop);
///  * evaluation   — the Eq. 1-5 quality metrics and report
///                   (partition/metrics.h);
///  * plans        — saving, loading and applying partition plans
///                   (partition/plan_io.h);
///  * observability— the metrics registry and trace spans that every
///                   layer above records into (obs/metrics.h,
///                   obs/trace.h);
///  * scaffolding  — Status / Result error handling (common/status.h)
///                   and command-line flag parsing (common/flags.h).
///
/// Applications should prefer this header over reaching into the
/// per-layer headers; see examples/quickstart.cpp. Link against the
/// umbrella `rlcut` CMake target.
///
/// Deprecation notes (API v6)
/// --------------------------
///  * Constructing methods through the per-method factory functions
///    (MakeRandPg, MakeHashPl, MakeGinger, MakeGeoCut, MakeRevolver,
///    MakeSpinner, MakeFennel, MakeRLCut) is deprecated for
///    applications: resolve methods by registry name instead —
///    MakePartitionerByName(name, options) for a one-shot run, or
///    OpenPartitioningSession(name, ctx, options) for a live session.
///    The factories remain as the registry's implementation hooks (and
///    for method-specific option structs), but direct application use
///    will stop being part of this umbrella in the next release.
///  * Batch Partitioner::Run is the one-shot entry point. Code that
///    re-runs a method as its problem evolves uses a
///    PartitioningSession and micro-batches instead.

#include "baselines/leopard.h"
#include "baselines/partitioner.h"
#include "baselines/spinner.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/flags.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/geo.h"
#include "graph/io.h"
#include "graph/stream.h"
#include "graph/temporal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/metrics.h"
#include "partition/plan_io.h"
#include "partition/session.h"
#include "rlcut/checkpoint.h"
#include "rlcut/rlcut_partitioner.h"
#include "rlcut/session.h"

#endif  // RLCUT_RLCUT_API_H_
