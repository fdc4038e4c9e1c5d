#include "check/fixtures.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <ios>
#include <numeric>
#include <sstream>

#include "graph/generators.h"
#include "graph/geo.h"
#include "rlcut/checkpoint.h"

namespace rlcut {
namespace check {

Topology DyadicTopology(int preset, int num_dcs) {
  static const double kUplinkGbps[] = {0.25, 0.5,  0.125, 1.0,
                                       0.5,  0.25, 2.0,   0.125};
  static const double kDownlinkGbps[] = {0.5, 1.0, 0.25, 2.0,
                                         1.0, 0.5, 4.0,  0.25};
  static const double kUploadPrice[] = {0.125,   0.0625, 0.25,   0.03125,
                                        0.09375, 0.5,    0.0625, 0.25};
  std::vector<DataCenter> dcs(num_dcs);
  for (int r = 0; r < num_dcs; ++r) {
    dcs[r].name = "dc" + std::to_string(r);
    const int row = preset == 0 ? 0 : r % 8;
    dcs[r].uplink_gbps = kUplinkGbps[row];
    dcs[r].downlink_gbps = kDownlinkGbps[row];
    dcs[r].upload_price = kUploadPrice[row];
  }
  return Topology(std::move(dcs));
}

Workload DyadicWorkload() {
  Workload w;
  w.name = "dyadic";
  w.apply_base_bytes = 8;
  w.apply_bytes_per_out_edge = 0.25;
  w.gather_base_bytes = 4;
  w.activity = {1.0, 0.5, 0.25, 0.25};
  return w;
}

Graph DyadicGraph(int kind, VertexId num_vertices, uint64_t num_edges,
                  uint64_t seed) {
  switch (kind) {
    case 0: {
      PowerLawOptions o;
      o.num_vertices = num_vertices;
      o.num_edges = num_edges;
      o.exponent = 2.0;
      o.seed = seed;
      return GeneratePowerLaw(o);
    }
    case 1:
      return GenerateErdosRenyi(num_vertices, num_edges, seed);
    default: {
      RmatOptions o;
      o.num_vertices = num_vertices;
      o.num_edges = num_edges;
      o.seed = seed;
      return GenerateRmat(o);
    }
  }
}

std::unique_ptr<PartitionState> Problem::MakeState() const {
  auto state = std::make_unique<PartitionState>(&graph, &topology,
                                                &locations, &sizes, config);
  state->ResetDerived(locations);
  return state;
}

std::vector<VertexId> Problem::AllVertices() const {
  std::vector<VertexId> all(graph.num_vertices());
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

namespace {
constexpr int kTrainingDcs = 4;
constexpr VertexId kTrainingVertices = 192;
}  // namespace

Problem TrainingProblem(uint64_t seed) {
  Problem p;
  p.topology = MakeEc2Topology(kTrainingDcs, Heterogeneity::kMedium);
  PowerLawOptions gen;
  gen.num_vertices = kTrainingVertices;
  gen.num_edges = 1152;
  gen.seed = seed;
  p.graph = GeneratePowerLaw(gen);
  GeoLocatorOptions geo;
  geo.num_dcs = kTrainingDcs;
  geo.seed = seed + 101;
  p.locations = AssignGeoLocations(p.graph, geo);
  p.sizes = AssignInputSizes(p.graph);
  p.config.model = ComputeModel::kHybridCut;
  p.config.theta = PartitionState::AutoTheta(p.graph);
  p.config.workload = Workload::PageRank();
  return p;
}

RLCutOptions TrainingOptions(uint64_t seed) {
  RLCutOptions topts;
  topts.max_steps = 5;
  topts.batch_size = 16;
  topts.num_threads = 3;
  topts.seed = seed;
  topts.agent_visit_budget = static_cast<int64_t>(kTrainingVertices) * 4;
  // A tiny epsilon still converges on an exact plateau (relative
  // improvement of 0.0), so runs may legitimately stop early.
  topts.convergence_epsilon = 1e-12;
  return topts;
}

fault::FaultSchedule RandomSchedule(uint64_t seed,
                                    std::span<const FaultCandidate> candidates,
                                    CounterRng* rng) {
  fault::FaultSchedule schedule;
  schedule.seed = seed;
  const size_t num_rules = 1 + rng->Below(3);
  std::vector<bool> used(candidates.size(), false);
  for (size_t i = 0; i < num_rules; ++i) {
    size_t pick = rng->Below(candidates.size());
    while (used[pick]) pick = (pick + 1) % candidates.size();
    used[pick] = true;
    fault::FaultRule rule;
    rule.site = candidates[pick].site;
    candidates[pick].fill(&rule, rng);
    schedule.rules.push_back(rule);
  }
  return schedule;
}

std::string Hex(double x) {
  std::ostringstream out;
  out << std::hexfloat << x << std::defaultfloat << " (" << x << ")";
  return out.str();
}

bool SameObjective(const Objective& a, const Objective& b) {
  return a.transfer_seconds == b.transfer_seconds &&
         a.cost_dollars == b.cost_dollars &&
         a.smooth_seconds == b.smooth_seconds;
}

std::string DiffObjective(const Objective& a, const Objective& b) {
  std::ostringstream out;
  if (a.transfer_seconds != b.transfer_seconds) {
    out << " transfer " << Hex(a.transfer_seconds) << " vs "
        << Hex(b.transfer_seconds);
  }
  if (a.cost_dollars != b.cost_dollars) {
    out << " cost " << Hex(a.cost_dollars) << " vs " << Hex(b.cost_dollars);
  }
  if (a.smooth_seconds != b.smooth_seconds) {
    out << " smooth " << Hex(a.smooth_seconds) << " vs "
        << Hex(b.smooth_seconds);
  }
  return out.str();
}

std::string ScratchPath(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream name;
  name << "rlcut_audit_" << ::getpid() << "_"
       << counter.fetch_add(1, std::memory_order_relaxed) << "_" << tag;
  return (std::filesystem::temp_directory_path() / name.str()).string();
}

void RemoveWithSidecars(const std::string& path) {
  const std::string prev = CheckpointFallbackPath(path);
  for (const std::string& p : {path, path + ".tmp", prev, prev + ".tmp"}) {
    std::remove(p.c_str());
  }
}

}  // namespace check
}  // namespace rlcut
