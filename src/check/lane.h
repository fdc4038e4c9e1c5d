#ifndef RLCUT_CHECK_LANE_H_
#define RLCUT_CHECK_LANE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rlcut {
namespace check {

/// What a lane's cases counted and every failure they found.
struct LaneReport {
  std::vector<std::pair<std::string, uint64_t>> counts;
  std::vector<std::string> failures;

  /// Adds `n` to the named count, appending it on first use. A case
  /// adds each of its counts (0 is fine) before it can fail, so every
  /// summary lists them in the same order.
  void Add(const std::string& name, uint64_t n);
  /// The named count, 0 if never added.
  uint64_t Count(const std::string& name) const;
};

/// One audit lane: a seeded, randomized check. `run_case` runs exactly
/// one case, and the case depends on its seed alone, so any failing
/// case replays by itself. The counts are the cases run at each budget
/// tier: smoke (ctest), ci (every commit) and nightly.
struct Lane {
  const char* name;
  int smoke;
  int ci;
  int nightly;
  void (*run_case)(uint64_t seed, LaneReport* report);
};

/// Every lane, in the order the audit runs them.
const std::vector<Lane>& Lanes();

/// The lane called `name`, or nullptr.
const Lane* FindLane(std::string_view name);

/// RunLane stops a lane once this many failures are collected.
inline constexpr size_t kMaxLaneFailures = 16;

/// Runs the cases seeded `seed` ... `seed + count - 1`. The result
/// counts "cases" first and then the lane's own counts, summed; each
/// failure reads "FAIL <lane> seed=<case seed>: <what>". With `log`,
/// every failure is also printed there as it is found, followed by the
/// command that replays it.
LaneReport RunLane(const Lane& lane, uint64_t seed, uint64_t count,
                   std::FILE* log = nullptr);

/// "<lane>: <n> cases, <count> <name>, ..., <k> failures".
std::string LaneSummary(const Lane& lane, const LaneReport& report);

/// "rlcut_audit --lane=<lane> --seed=<seed> --count=1".
std::string ReplayCommand(const Lane& lane, uint64_t seed);

// ---- The lanes' case functions ---------------------------------------
//
// Each lives in its lane's file, which documents what the lane checks:
// differential_oracle.cc (oracle), fuzz.cc (corpus and fuzz), chaos.cc,
// and <lane>_oracle.cc for the rest.

void RunOracleCase(uint64_t seed, LaneReport* report);
void RunCorpusCase(uint64_t seed, LaneReport* report);
void RunFuzzCase(uint64_t seed, LaneReport* report);
void RunRenumberCase(uint64_t seed, LaneReport* report);
void RunThreadCase(uint64_t seed, LaneReport* report);
void RunChaosCase(uint64_t seed, LaneReport* report);
void RunNetCase(uint64_t seed, LaneReport* report);
void RunStreamCase(uint64_t seed, LaneReport* report);

}  // namespace check
}  // namespace rlcut

#endif  // RLCUT_CHECK_LANE_H_
