#ifndef RLCUT_BASELINES_SPINNER_H_
#define RLCUT_BASELINES_SPINNER_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/partitioner.h"
#include "common/random.h"
#include "partition/partition_state.h"

namespace rlcut {

/// Concrete Spinner core (Martella et al., ICDE'17): capacity-aware
/// label propagation over an edge-cut PartitionState, shared by the
/// batch Partitioner (MakeSpinner) and the incremental SpinnerSession.
///
/// Spinner is a best-effort method: Refine runs to convergence and is
/// *not* bounded by a time budget — the very property RLCut's adaptive
/// sampling improves upon (Fig. 15b).
class SpinnerCore {
 public:
  explicit SpinnerCore(SpinnerOptions options) : options_(options) {}

  /// Runs label propagation starting from the masters already in
  /// `state` (edge-cut, derived placement), sweeping from `seeds` and
  /// expanding to neighbors of moved vertices. Pass all vertices for a
  /// full partitioning; pass the endpoints of newly inserted edges for
  /// incremental adaptation. Returns the number of LP iterations run.
  int Refine(PartitionState* state, std::vector<VertexId> seeds, Rng* rng);

 private:
  SpinnerOptions options_;
};

/// Spinner's incremental mode as a PartitioningSession (edge-cut): the
/// first re-optimization propagates labels from the initial locations
/// L_v over every vertex (seeded with the context's seed); each later
/// one propagates best-effort from the endpoints of the changed edges
/// (seed + 1), to convergence regardless of any time budget — the
/// behaviour Fig. 15b contrasts RLCut against. Opened for "Spinner" by
/// OpenPartitioningSession.
class SpinnerSession : public PartitioningSession {
 public:
  /// Validates `ctx` and copies the problem.
  static Result<std::unique_ptr<SpinnerSession>> Open(
      const PartitionerContext& ctx, SpinnerOptions options);

  std::string method() const override { return "Spinner"; }

 protected:
  void Adapt(std::vector<VertexId> eligible, bool first_pass) override;

 private:
  SpinnerSession(const PartitionerContext& ctx, SpinnerOptions options)
      : PartitioningSession(ctx, ComputeModel::kEdgeCut), options_(options) {}

  SpinnerOptions options_;
};

}  // namespace rlcut

#endif  // RLCUT_BASELINES_SPINNER_H_
