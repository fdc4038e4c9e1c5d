// Correctness audit tool: runs the audit lanes of check/lane.h — the
// differential oracle, loader corpus replay and fuzzing, and the
// renumber, thread, chaos, net and stream oracles — and exits non-zero
// on any failure. Every failure prints the command that replays it:
//
//   rlcut_audit                         # every lane, smoke tier (ctest)
//   rlcut_audit --tier=ci               # every lane, per-commit CI tier
//   rlcut_audit --lane=thread,net --tier=nightly --seed=20261017
//   rlcut_audit --lane=thread --seed=787 --count=1  # replay one case

#include <cstdio>
#include <string>
#include <vector>

#include "check/lane.h"
#include "common/flags.h"

namespace {

// Case count of `lane` at `tier`, or -1 for an unknown tier.
int TierCount(const rlcut::check::Lane& lane, const std::string& tier) {
  if (tier == "smoke") return lane.smoke;
  if (tier == "ci") return lane.ci;
  if (tier == "nightly") return lane.nightly;
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  rlcut::FlagParser flags;
  flags.DefineString("lane", "all", "comma-separated lanes, or all");
  flags.DefineString("tier", "smoke",
                     "case budget per lane: smoke | ci | nightly");
  flags.DefineInt("seed", 1, "first case seed; cases use seed, seed+1, ...");
  flags.DefineInt("count", 0, "cases per lane (0 = the tier's count)");
  const rlcut::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    std::FILE* out = parsed.ok() ? stdout : stderr;
    if (!parsed.ok()) std::fprintf(out, "%s\n", parsed.ToString().c_str());
    std::fprintf(out, "%s\nlanes (cases at smoke / ci / nightly):\n",
                 flags.Usage(argv[0]).c_str());
    for (const rlcut::check::Lane& lane : rlcut::check::Lanes()) {
      std::fprintf(out, "  %-9s %6d %6d %7d\n", lane.name, lane.smoke,
                   lane.ci, lane.nightly);
    }
    return parsed.ok() ? 0 : 2;
  }

  std::vector<const rlcut::check::Lane*> lanes;
  const std::string& lane_list = flags.GetString("lane");
  if (lane_list == "all") {
    for (const rlcut::check::Lane& lane : rlcut::check::Lanes()) {
      lanes.push_back(&lane);
    }
  } else {
    size_t begin = 0;
    while (begin <= lane_list.size()) {
      size_t end = lane_list.find(',', begin);
      if (end == std::string::npos) end = lane_list.size();
      const std::string name = lane_list.substr(begin, end - begin);
      const rlcut::check::Lane* lane = rlcut::check::FindLane(name);
      if (lane == nullptr) {
        std::fprintf(stderr, "unknown lane '%s' (see --help)\n", name.c_str());
        return 2;
      }
      lanes.push_back(lane);
      begin = end + 1;
    }
  }
  const std::string& tier = flags.GetString("tier");
  if (TierCount(*lanes.front(), tier) < 0) {
    std::fprintf(stderr, "unknown --tier=%s (smoke | ci | nightly)\n",
                 tier.c_str());
    return 2;
  }
  const int64_t count = flags.GetInt("count");
  const int64_t seed = flags.GetInt("seed");
  if (count < 0 || seed < 0) {
    std::fprintf(stderr, "--seed and --count must be non-negative\n");
    return 2;
  }

  int rc = 0;
  for (const rlcut::check::Lane* lane : lanes) {
    const rlcut::check::LaneReport report = rlcut::check::RunLane(
        *lane, static_cast<uint64_t>(seed),
        static_cast<uint64_t>(count > 0 ? count : TierCount(*lane, tier)),
        stderr);
    std::printf("%s\n", rlcut::check::LaneSummary(*lane, report).c_str());
    std::fflush(stdout);
    if (!report.failures.empty()) rc = 1;
  }
  return rc;
}
