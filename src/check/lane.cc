#include "check/lane.h"

#include <sstream>

namespace rlcut {
namespace check {

void LaneReport::Add(const std::string& name, uint64_t n) {
  for (auto& [key, value] : counts) {
    if (key == name) {
      value += n;
      return;
    }
  }
  counts.emplace_back(name, n);
}

uint64_t LaneReport::Count(const std::string& name) const {
  for (const auto& [key, value] : counts) {
    if (key == name) return value;
  }
  return 0;
}

const std::vector<Lane>& Lanes() {
  // One explicit table: the lane files are objects in a static library,
  // so self-registration from static initializers would be dropped by
  // the linker for any lane nothing else references.
  static const std::vector<Lane> kLanes = {
      {"oracle", 1026, 1026, 12288, RunOracleCase},
      {"corpus", 1, 1, 1, RunCorpusCase},
      {"fuzz", 1500, 10000, 100000, RunFuzzCase},
      {"renumber", 9, 24, 96, RunRenumberCase},
      {"thread", 6, 12, 96, RunThreadCase},
      {"chaos", 4, 8, 500, RunChaosCase},
      {"net", 6, 120, 300, RunNetCase},
      {"stream", 4, 100, 400, RunStreamCase},
  };
  return kLanes;
}

const Lane* FindLane(std::string_view name) {
  for (const Lane& lane : Lanes()) {
    if (name == lane.name) return &lane;
  }
  return nullptr;
}

std::string ReplayCommand(const Lane& lane, uint64_t seed) {
  return "rlcut_audit --lane=" + std::string(lane.name) +
         " --seed=" + std::to_string(seed) + " --count=1";
}

LaneReport RunLane(const Lane& lane, uint64_t seed, uint64_t count,
                   std::FILE* log) {
  LaneReport total;
  total.Add("cases", 0);
  for (uint64_t i = 0; i < count; ++i) {
    if (total.failures.size() >= kMaxLaneFailures) break;
    const uint64_t c = seed + i;
    LaneReport one;
    lane.run_case(c, &one);
    total.Add("cases", 1);
    for (const auto& [name, value] : one.counts) total.Add(name, value);
    for (const std::string& what : one.failures) {
      if (total.failures.size() >= kMaxLaneFailures) break;
      std::string line = "FAIL " + std::string(lane.name) +
                         " seed=" + std::to_string(c) + ": " + what;
      if (log != nullptr) {
        std::fprintf(log, "%s\n  replay: %s\n", line.c_str(),
                     ReplayCommand(lane, c).c_str());
        std::fflush(log);
      }
      total.failures.push_back(std::move(line));
    }
  }
  return total;
}

std::string LaneSummary(const Lane& lane, const LaneReport& report) {
  std::ostringstream out;
  out << lane.name << ":";
  for (const auto& [name, value] : report.counts) {
    out << " " << value << " " << name << ",";
  }
  out << " " << report.failures.size() << " failures";
  return out.str();
}

}  // namespace check
}  // namespace rlcut
