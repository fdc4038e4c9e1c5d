#ifndef RLCUT_BASELINES_LEOPARD_H_
#define RLCUT_BASELINES_LEOPARD_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/partitioner.h"
#include "partition/session.h"

namespace rlcut {

/// Leopard-style dynamic vertex-cut (Huang & Abadi, VLDB'16, adapted) as
/// a PartitioningSession: the session carries the explicit edge
/// placement across changes, and every re-optimization streams only the
/// unplaced (new) edges by replica-affinity greedy placement, then moves
/// each touched vertex's master to its most-incident replica DC. The
/// first re-optimization places every edge. Network-oblivious, like the
/// original; an extra dynamic baseline for Exp#5, not a registry method.
class LeopardSession : public PartitioningSession {
 public:
  /// Validates `ctx` and copies the problem.
  static Result<std::unique_ptr<LeopardSession>> Open(
      const PartitionerContext& ctx);

  std::string method() const override { return "Leopard"; }

 protected:
  void Adapt(std::vector<VertexId> eligible, bool first_pass) override;

 private:
  explicit LeopardSession(const PartitionerContext& ctx)
      : PartitioningSession(ctx, ComputeModel::kVertexCut) {}
};

}  // namespace rlcut

#endif  // RLCUT_BASELINES_LEOPARD_H_
