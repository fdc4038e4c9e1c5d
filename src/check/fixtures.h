#ifndef RLCUT_CHECK_FIXTURES_H_
#define RLCUT_CHECK_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cloud/topology.h"
#include "common/random.h"
#include "fault/fault.h"
#include "graph/graph.h"
#include "partition/partition_state.h"
#include "partition/workload.h"
#include "rlcut/trainer.h"

namespace rlcut {
namespace check {

// ---- Dyadic-exact instance family -----------------------------------
//
// Every constant is a small multiple of a power of two, which keeps all
// additively maintained quantities (per-DC byte aggregates and the
// Eq. 4 move bytes) on a common dyadic grid far below the 2^53
// exactness limit. Divisions by bandwidth and by 1e9 are *not* exact,
// but every compared evaluation path derives them from bit-equal
// aggregates through the same code, so the results are bit-equal too.
// Any mismatch on these instances is a logic bug, not FP noise.

/// Preset 0: every DC alike. Preset 1: a heterogeneous per-DC table of
/// bandwidths and prices.
Topology DyadicTopology(int preset, int num_dcs);

/// PageRank-shaped traffic with dyadic byte sizes and activity.
Workload DyadicWorkload();

/// Graph kind 0 power-law, 1 Erdos-Renyi, 2 R-MAT.
Graph DyadicGraph(int kind, VertexId num_vertices, uint64_t num_edges,
                  uint64_t seed);

// ---- Training problems ----------------------------------------------

/// A deterministic hybrid-cut problem for full training runs, rebuilt
/// state by state so runs never share mutable state. States point into
/// the problem, so it must outlive them and stay in place meanwhile.
struct Problem {
  Topology topology;
  Graph graph;
  std::vector<DcId> locations;
  std::vector<double> sizes;
  PartitionConfig config;

  /// A fresh state at the natural partitioning (masters at home).
  std::unique_ptr<PartitionState> MakeState() const;
  std::vector<VertexId> AllVertices() const;
};

/// The chaos and net lanes' problem: a 192-vertex power-law graph on
/// the EC2 topology with geo locations and degree-derived input sizes.
Problem TrainingProblem(uint64_t seed);

/// The chaos and net lanes' trainer: a deterministic visit budget (the
/// wall-clock sampling of Eq. 14 is the one nondeterministic input to a
/// step), three worker threads, five steps of 16-agent batches.
RLCutOptions TrainingOptions(uint64_t seed);

// ---- Randomness ------------------------------------------------------

/// Counter-mode SplitMix64 stream: draw i is SplitMix64(state + i). The
/// chaos, net and stream lanes draw schedules and corruption points
/// from it.
struct CounterRng {
  uint64_t state;
  uint64_t Next() { return SplitMix64(state++); }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

/// A fault site a random schedule may arm, and how to draw its rule.
struct FaultCandidate {
  const char* site;
  void (*fill)(fault::FaultRule* rule, CounterRng* rng);
};

/// 1-3 rules on distinct candidates, drawn from `rng`; the injector's
/// own per-hit decisions are seeded by `seed`.
fault::FaultSchedule RandomSchedule(uint64_t seed,
                                    std::span<const FaultCandidate> candidates,
                                    CounterRng* rng);

// ---- Bit-level comparison --------------------------------------------

/// Hex float plus the decimal value, for exact-mismatch messages.
std::string Hex(double x);
bool SameObjective(const Objective& a, const Objective& b);
/// Describes every differing field of two objectives.
std::string DiffObjective(const Objective& a, const Objective& b);

// ---- Scratch files ---------------------------------------------------

/// A unique path in the temp directory, per process and call.
std::string ScratchPath(const std::string& tag);

/// Removes `path`, its checkpoint fallback, and both temp files.
void RemoveWithSidecars(const std::string& path);

}  // namespace check
}  // namespace rlcut

#endif  // RLCUT_CHECK_FIXTURES_H_
