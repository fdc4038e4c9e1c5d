#ifndef RLCUT_CHECK_FUZZ_H_
#define RLCUT_CHECK_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/lane.h"
#include "common/status.h"

namespace rlcut {
namespace check {

/// The loaders that parse untrusted bytes.
enum class LoaderKind {
  kCheckpoint,   // LoadTrainerCheckpoint ("RLCUTCKP" binary format)
  kPlan,         // LoadPlan ("rlcut-plan v1" text format)
  kNetSchedule,  // LoadTopologySchedule ("rlcut-net-schedule v1" text)
  kRlgGraph,     // MmapGraph::Open ("RLCUTRLG" mapped dual-CSR format)
  kNetFrame,     // FrameDecoder + replica protocol payloads ("RLNF"
                 // wire stream; bytes are fed directly, not via a file)
  kSession,      // RLCutSession::Restore ("RLCUTSSN" binary format)
};

inline constexpr LoaderKind kAllLoaders[] = {
    LoaderKind::kCheckpoint, LoaderKind::kPlan,     LoaderKind::kNetSchedule,
    LoaderKind::kRlgGraph,   LoaderKind::kNetFrame, LoaderKind::kSession};

const char* LoaderName(LoaderKind kind);

/// One corpus input: a byte string plus whether the loader must accept
/// it. Every corpus carries valid files, truncations, bit flips and
/// adversarial count fields (the allocation-bomb shapes the loaders are
/// hardened against).
struct CorpusCase {
  std::string name;
  std::string bytes;
  bool expect_ok = false;
};

/// The deterministic seed corpus for a loader.
std::vector<CorpusCase> BuildSeedCorpus(LoaderKind kind);

/// Writes `bytes` to a scratch file and runs the loader on it. For
/// accepted checkpoint/plan inputs, additionally round-trips the loaded
/// value through save+load and reports a mismatch as kInternal.
Status RunLoaderOnBytes(LoaderKind kind, const std::string& bytes);

/// Replays the seed corpus and checks every accept/reject expectation
/// (counts "inputs", "accepted", "rejected").
void ReplayCorpus(LoaderKind kind, LaneReport* report);

/// One deterministic structure-aware fuzz input, derived from `seed`
/// alone: mutates corpus seeds (truncate / bit-flip / splice / integer
/// overwrite; checksummed formats get their checksums re-fixed half the
/// time so mutations reach the payload decoder) and feeds the result to
/// the loader. The invariant is "clean Status or clean accept, never a
/// crash or an allocation bomb"; accepted inputs are additionally
/// round-trip checked.
void FuzzLoader(LoaderKind kind, uint64_t seed, LaneReport* report);

}  // namespace check
}  // namespace rlcut

#endif  // RLCUT_CHECK_FUZZ_H_
