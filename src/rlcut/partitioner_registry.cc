// The string-keyed partitioner registry declared in
// baselines/partitioner.h. It lives in rlcut_core (one layer above the
// baselines) because it must see MakeRLCut: with RLCut registered, the
// CLI tool and the comparison benches select every method — learned or
// heuristic — through one code path instead of hand-rolled dispatch.

#include <functional>

#include "baselines/extra_partitioners.h"
#include "baselines/partitioner.h"
#include "baselines/spinner.h"
#include "rlcut/rlcut_partitioner.h"
#include "rlcut/session.h"

namespace rlcut {
namespace {

SpinnerOptions SpinnerOptionsFrom(const PartitionerOptions& o) {
  SpinnerOptions opt;
  if (o.iterations > 0) opt.max_iterations = o.iterations;
  if (o.balance_slack > 0) opt.balance_slack = o.balance_slack;
  return opt;
}

struct RegistryEntry {
  PartitionerInfo info;
  std::function<std::unique_ptr<Partitioner>(const PartitionerOptions&)>
      factory;
};

/// Registration order is the listing order: the paper's six Fig. 10
/// comparisons, then RLCut, then the extras.
const std::vector<RegistryEntry>& Registry() {
  static const std::vector<RegistryEntry>* registry = new std::vector<
      RegistryEntry>{
      {{"RandPG", "balanced vertex-cut by random edge assignment", true,
        false},
       [](const PartitionerOptions&) { return MakeRandPg(); }},
      {{"Geo-Cut", "network-aware streaming vertex-cut under a cost budget",
        true, true},
       [](const PartitionerOptions& o) {
         GeoCutOptions opt;
         if (o.refinement_rounds >= 0) {
           opt.refinement_rounds = o.refinement_rounds;
         }
         return MakeGeoCut(opt);
       }},
      {{"HashPL", "hybrid-cut with hash-based master assignment", true,
        false},
       [](const PartitionerOptions&) { return MakeHashPl(); }},
      {{"Ginger", "hybrid-cut with Fennel-style greedy low-degree placement",
        true, false},
       [](const PartitionerOptions&) { return MakeGinger(); }},
      {{"Revolver", "learning-automata edge-cut", true, false},
       [](const PartitionerOptions& o) {
         RevolverOptions opt;
         if (o.iterations > 0) opt.iterations = o.iterations;
         return MakeRevolver(opt);
       }},
      {{"Spinner", "capacity-constrained label-propagation edge-cut", true,
        false},
       [](const PartitionerOptions& o) {
         return MakeSpinner(SpinnerOptionsFrom(o));
       }},
      {{"RLCut", "multi-agent RL hybrid-cut under time and cost budgets",
        false, true},
       [](const PartitionerOptions& o) {
         RLCutOptions opt;
         opt.t_opt_seconds = o.t_opt_seconds;
         opt.agent_visit_budget = o.agent_visit_budget;
         if (o.max_steps > 0) opt.max_steps = o.max_steps;
         return MakeRLCut(opt);
       }},
      {{"Annealing", "simulated annealing over hybrid-cut masters", false,
        true},
       [](const PartitionerOptions&) { return MakeAnnealing(); }},
      {{"Fennel", "single-pass streaming edge-cut", false, false},
       [](const PartitionerOptions&) { return MakeFennel(); }},
      {{"GrapH", "heterogeneity-aware adaptive vertex-cut", false, false},
       [](const PartitionerOptions& o) {
         GrapHOptions opt;
         if (o.iterations > 0) opt.migration_rounds = o.iterations;
         return MakeGrapH(opt);
       }},
      {{"HDRF", "high-degree-replicated-first streaming vertex-cut", false,
        false},
       [](const PartitionerOptions&) { return MakeHdrf(); }},
      {{"LDG", "linear deterministic greedy streaming edge-cut", false,
        false},
       [](const PartitionerOptions&) { return MakeLdg(); }},
      {{"Multilevel", "METIS-style multilevel edge-cut", false, false},
       [](const PartitionerOptions& o) {
         MultilevelOptions opt;
         if (o.iterations > 0) opt.refinement_passes = o.iterations;
         return MakeMultilevel(opt);
       }},
      {{"Oblivious", "PowerGraph greedy vertex-cut", false, false},
       [](const PartitionerOptions&) { return MakeOblivious(); }},
      {{"SingleAgentRL", "single automaton over the joint action space",
        false, false},
       [](const PartitionerOptions&) { return MakeSingleAgentRl(); }},
  };
  return *registry;
}

const RegistryEntry* FindEntry(const std::string& name) {
  for (const RegistryEntry& entry : Registry()) {
    if (entry.info.name == name) return &entry;
  }
  // Historical spelling aliases accepted by the old dispatch.
  if (name == "GeoCut") return FindEntry("Geo-Cut");
  if (name == "Hdrf") return FindEntry("HDRF");
  if (name == "Ldg") return FindEntry("LDG");
  return nullptr;
}

}  // namespace

std::vector<PartitionerInfo> ListPartitioners() {
  std::vector<PartitionerInfo> out;
  out.reserve(Registry().size());
  for (const RegistryEntry& entry : Registry()) out.push_back(entry.info);
  return out;
}

Result<std::unique_ptr<Partitioner>> MakePartitionerByName(
    const std::string& name, const PartitionerOptions& options) {
  const RegistryEntry* entry = FindEntry(name);
  if (entry == nullptr) {
    std::string known;
    for (const RegistryEntry& e : Registry()) {
      if (!known.empty()) known += ", ";
      known += e.info.name;
    }
    return Status::NotFound("unknown partitioner '" + name +
                            "' (known: " + known + ")");
  }
  return entry->factory(options);
}

Result<std::unique_ptr<PartitioningSession>> OpenPartitioningSession(
    const std::string& method, const PartitionerContext& ctx,
    const SessionOptions& options) {
  const RegistryEntry* entry = FindEntry(method);
  if (entry == nullptr) {
    std::string known;
    for (const RegistryEntry& e : Registry()) {
      if (!known.empty()) known += ", ";
      known += e.info.name;
    }
    return Status::NotFound("unknown partitioner '" + method +
                            "' (known: " + known + ")");
  }
  if (entry->info.name == "RLCut") {
    // The incremental session: persistent automata, affected-only
    // re-training. Mirrors the registry factory's options mapping.
    RLCutSessionOptions session_options;
    session_options.initial.t_opt_seconds = options.partitioner.t_opt_seconds;
    session_options.initial.agent_visit_budget =
        options.partitioner.agent_visit_budget;
    if (options.partitioner.max_steps > 0) {
      session_options.initial.max_steps = options.partitioner.max_steps;
    }
    session_options.incremental = session_options.initial;
    session_options.drift_threshold = options.drift_threshold;
    Result<std::unique_ptr<RLCutSession>> session =
        RLCutSession::Open(ctx, std::move(session_options));
    if (!session.ok()) return session.status();
    return std::unique_ptr<PartitioningSession>(std::move(*session));
  }
  if (entry->info.name == "Spinner") {
    Result<std::unique_ptr<SpinnerSession>> session =
        SpinnerSession::Open(ctx, SpinnerOptionsFrom(options.partitioner));
    if (!session.ok()) return session.status();
    return std::unique_ptr<PartitioningSession>(std::move(*session));
  }
  Result<std::unique_ptr<OneShotSession>> session =
      OneShotSession::Open(entry->factory(options.partitioner), ctx);
  if (!session.ok()) return session.status();
  return std::unique_ptr<PartitioningSession>(std::move(*session));
}

std::vector<std::unique_ptr<Partitioner>> MakePaperBaselines() {
  std::vector<std::unique_ptr<Partitioner>> baselines;
  for (const RegistryEntry& entry : Registry()) {
    if (!entry.info.paper_comparison) continue;
    baselines.push_back(entry.factory(PartitionerOptions{}));
  }
  return baselines;
}

}  // namespace rlcut
