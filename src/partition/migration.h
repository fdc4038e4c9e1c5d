#ifndef RLCUT_PARTITION_MIGRATION_H_
#define RLCUT_PARTITION_MIGRATION_H_

#include <vector>

#include "cloud/topology.h"
#include "partition/plan_io.h"

namespace rlcut {

/// Cost and traffic of deploying a new partitioning over an old one:
/// every vertex whose master moves must ship its input data (and
/// accumulated state) from the old master DC to the new one. This is
/// the re-partitioning migration the paper's dynamic experiments imply
/// but never price; every published session plan reports it
/// (PublishedPlan::migration) so window budgets can account for
/// deployment, not just optimization.
struct MigrationSummary {
  uint64_t vertices_moved = 0;
  double bytes_moved = 0;
  /// Upload cost of the moved data at the source DCs' prices, dollars.
  double cost_dollars = 0;
  /// Eq. 1-style transfer time of the migration itself (per-DC link
  /// loads, max over DCs), seconds.
  double transfer_seconds = 0;
  /// Per-source-DC bytes leaving each DC.
  std::vector<double> bytes_out;
  /// Per-destination-DC bytes entering each DC.
  std::vector<double> bytes_in;
};

/// Compares two master assignments over the same vertex set. `sizes`
/// are the per-vertex data footprints (bytes) that must move.
MigrationSummary PlanMigration(const std::vector<DcId>& old_masters,
                               const std::vector<DcId>& new_masters,
                               const std::vector<double>& sizes,
                               const Topology& topology);

/// Convenience overload over serialized plans (vertex counts must
/// match).
MigrationSummary PlanMigration(const PartitionPlan& old_plan,
                               const PartitionPlan& new_plan,
                               const std::vector<double>& sizes,
                               const Topology& topology);

}  // namespace rlcut

#endif  // RLCUT_PARTITION_MIGRATION_H_
