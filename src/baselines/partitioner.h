#ifndef RLCUT_BASELINES_PARTITIONER_H_
#define RLCUT_BASELINES_PARTITIONER_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/topology.h"
#include "common/status.h"
#include "graph/graph.h"
#include "partition/partition_state.h"
#include "partition/session.h"
#include "partition/workload.h"

namespace rlcut {

/// A produced partitioning plus the measured optimization overhead
/// (Table III's metric).
struct PartitionOutput {
  PartitionOutput(PartitionState state_in, double overhead)
      : state(std::move(state_in)), overhead_seconds(overhead) {}

  PartitionState state;
  double overhead_seconds = 0;
};

/// Common interface for all static partitioning methods (Sec. VI-A3).
///
/// Run() validates the context (returning a Status instead of crashing
/// on null graphs, dcs mismatches or a negative budget), opens a
/// "partition/run" trace span, calls the method's DoRun() and records
/// the optimization overhead in the default metrics registry, so every
/// method, including ones added later, is instrumented through this
/// single hook. A method whose problem evolves runs in a
/// PartitioningSession instead (OneShotSession below re-runs DoRun).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Paper name, e.g. "Ginger".
  virtual std::string name() const = 0;

  /// Which computation model the produced partitioning targets.
  virtual ComputeModel model() const = 0;

  /// Computes a partitioning. Self-times: the returned overhead is the
  /// wall-clock optimization time. Fails with InvalidArgument on a bad
  /// context instead of aborting.
  Result<PartitionOutput> Run(const PartitionerContext& ctx);

  /// Convenience for callers with known-good contexts (tests, benches):
  /// CHECK-fails on error.
  PartitionOutput RunOrDie(const PartitionerContext& ctx);

 protected:
  /// Method implementation. The context has already been validated.
  virtual PartitionOutput DoRun(const PartitionerContext& ctx) = 0;

 private:
  // The session kind for batch methods re-runs DoRun on its own
  // (already validated) problem.
  friend class OneShotSession;
};

/// PartitioningSession for batch (non-incremental) methods: owns the
/// wrapped partitioner, and every MaybeReoptimize that has changes to
/// adapt to re-partitions the whole live problem from scratch with the
/// method's DoRun (these methods keep no incremental state), then
/// clamps to the migration budget.
class OneShotSession : public PartitioningSession {
 public:
  /// Validates `ctx`, copies the problem, takes ownership of the method.
  static Result<std::unique_ptr<OneShotSession>> Open(
      std::unique_ptr<Partitioner> partitioner, const PartitionerContext& ctx);

  std::string method() const override { return partitioner_->name(); }

 protected:
  void Adapt(std::vector<VertexId> eligible, bool first_pass) override;

 private:
  OneShotSession(std::unique_ptr<Partitioner> partitioner,
                 const PartitionerContext& ctx);

  std::unique_ptr<Partitioner> partitioner_;
};

// ---- String-keyed registry --------------------------------------------

/// Method-generic knobs accepted by MakePartitionerByName. Each factory
/// maps the fields it understands onto its native options struct and
/// ignores the rest; zero/negative values mean "method default".
struct PartitionerOptions {
  /// RLCut: wall-clock training budget T_opt, seconds.
  double t_opt_seconds = 0;
  /// RLCut: deterministic agent-visit budget (overrides nothing if 0).
  int64_t agent_visit_budget = 0;
  /// RLCut: maximum training steps.
  int max_steps = 0;
  /// Iterative methods (Revolver, Spinner, GrapH, Multilevel passes).
  int iterations = 0;
  /// Geo-Cut greedy refinement sweeps (< 0 = default).
  int refinement_rounds = -1;
  /// Spinner capacity slack.
  double balance_slack = 0;
};

/// Registry card for one partitioner.
struct PartitionerInfo {
  std::string name;
  /// One-line description for --help style listings.
  std::string summary;
  /// One of the paper's six Fig. 10 comparisons.
  bool paper_comparison = false;
  /// Consults PartitionerContext::budget (Eq. 7).
  bool budget_aware = false;
};

/// All registered partitioners: the six paper comparisons first, in
/// Fig. 10 order, then RLCut, then the extra published baselines.
/// (Implemented above the baselines layer, in rlcut_core, so that RLCut
/// itself can register; link the umbrella `rlcut` target to use it.)
std::vector<PartitionerInfo> ListPartitioners();

/// Creates a partitioner by registry name (see ListPartitioners). This
/// includes "RLCut"; NotFound for unknown names, with the known names
/// in the message.
Result<std::unique_ptr<Partitioner>> MakePartitionerByName(
    const std::string& name, const PartitionerOptions& options);

/// Options for OpenPartitioningSession.
struct SessionOptions {
  /// Method-generic knobs, mapped exactly as MakePartitionerByName.
  PartitionerOptions partitioner;
  /// RLCut: topology drift that marks replicated vertices for
  /// re-training (see RLCutSessionOptions).
  double drift_threshold = 0.05;
};

/// Opens a session for a registry method over `ctx`. "RLCut" opens the
/// incremental RLCutSession (rlcut/session.h) and "Spinner" the
/// incremental SpinnerSession (baselines/spinner.h); every other method
/// is wrapped in a OneShotSession. Implemented next to the registry in
/// rlcut/partitioner_registry.cc.
Result<std::unique_ptr<PartitioningSession>> OpenPartitioningSession(
    const std::string& method, const PartitionerContext& ctx,
    const SessionOptions& options = {});

// ---- Factory functions for the paper's six comparisons ----------------

/// RandPG: balanced p-way vertex-cut by random edge assignment
/// (PowerGraph's random placement).
std::unique_ptr<Partitioner> MakeRandPg();

/// HashPL: hybrid-cut with hash-based master assignment (PowerLyra).
std::unique_ptr<Partitioner> MakeHashPl();

/// Ginger: hybrid-cut with Fennel-style greedy assignment of low-degree
/// vertices (PowerLyra's Ginger heuristic); high-degree by hash.
std::unique_ptr<Partitioner> MakeGinger();

/// Geo-Cut: heuristic network-aware vertex-cut that streams edges to the
/// DC minimizing the transfer-time increase subject to the cost budget
/// (Zhou et al., ICDCS'17), plus a refinement pass.
struct GeoCutOptions {
  /// Number of greedy refinement sweeps after the streaming pass.
  int refinement_rounds = 1;
};
std::unique_ptr<Partitioner> MakeGeoCut(GeoCutOptions options = {});

/// Revolver: learning-automata edge-cut (Mofrad et al., IEEE CLOUD'18):
/// one automaton per vertex, reward when the chosen partition is the
/// locally dominant one under a balance penalty.
struct RevolverOptions {
  int iterations = 20;
  double alpha = 0.1;  // LA reward parameter
  double beta = 0.1;   // LA penalty parameter
  double balance_weight = 1.0;
};
std::unique_ptr<Partitioner> MakeRevolver(RevolverOptions options = {});

/// Spinner: label-propagation edge-cut (Martella et al., ICDE'17) with
/// capacity-constrained moves; SpinnerSession (baselines/spinner.h) is
/// its incremental mode, used in the dynamic experiments.
struct SpinnerOptions {
  int max_iterations = 30;
  /// Loosened capacity: a partition accepts up to
  /// balance_slack * |E| / M edge-endpoints.
  double balance_slack = 1.05;
  /// Convergence: stop when fewer than this fraction of vertices moved.
  double convergence_fraction = 0.002;
};
std::unique_ptr<Partitioner> MakeSpinner(SpinnerOptions options = {});

/// Fennel: single-pass streaming edge-cut (Tsourakakis et al., WSDM'14).
/// Not one of the paper's six comparisons; kept as an extra baseline.
struct FennelOptions {
  double gamma = 1.5;
};
std::unique_ptr<Partitioner> MakeFennel(FennelOptions options = {});

/// All six paper comparisons, in Fig. 10 order. A view over the
/// registry: the entries whose PartitionerInfo::paper_comparison is set
/// (implemented alongside the registry in rlcut/partitioner_registry.cc).
std::vector<std::unique_ptr<Partitioner>> MakePaperBaselines();

}  // namespace rlcut

#endif  // RLCUT_BASELINES_PARTITIONER_H_
