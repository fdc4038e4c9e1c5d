#include "partition/plan_delta.h"

#include <string>
#include <utility>

#include "common/byte_io.h"
#include "common/random.h"

namespace rlcut {

namespace {

// One vertex's term of the masters digest. SplitMix64 is a bijection on
// 64-bit words, and the key packs (vertex, DC) injectively, so distinct
// (vertex, DC) pairs never share a term.
uint64_t MasterTerm(VertexId v, DcId dc) {
  return SplitMix64((static_cast<uint64_t>(v) << 32) |
                    static_cast<uint32_t>(dc));
}

// Whether `move` applies onto `masters` as it stands.
Status CheckMove(const PlanMove& move, const std::vector<DcId>& masters,
                 int num_dcs) {
  if (move.vertex >= masters.size()) {
    return Status::OutOfRange("plan delta moves vertex " +
                              std::to_string(move.vertex) +
                              " outside the replica");
  }
  if (move.to < 0 || move.to >= num_dcs) {
    return Status::OutOfRange("plan delta moves vertex " +
                              std::to_string(move.vertex) +
                              " to unknown DC " + std::to_string(move.to));
  }
  if (masters[move.vertex] != move.from) {
    return Status::FailedPrecondition(
        "plan delta expects vertex " + std::to_string(move.vertex) +
        " mastered at DC " + std::to_string(move.from) +
        " but the replica has it at " +
        std::to_string(masters[move.vertex]));
  }
  return Status::Ok();
}

}  // namespace

PlanReplica::PlanReplica(std::vector<DcId> masters, int num_dcs)
    : masters_(std::move(masters)),
      num_dcs_(num_dcs),
      fingerprint_(MastersFingerprint(masters_)) {}

Status PlanReplica::Apply(const PlanDelta& delta) {
  if (delta.base_version != version_) {
    return Status::FailedPrecondition(
        "plan delta applies on version " +
        std::to_string(delta.base_version) + " but the replica is at " +
        std::to_string(version_));
  }
  // Moves apply in place and in order, so `from` chains through
  // duplicates. A rejected move undoes the applied prefix in reverse,
  // which leaves the replica bit-identical to its pre-Apply state.
  const uint64_t fingerprint_before = fingerprint_;
  for (size_t i = 0; i < delta.moves.size(); ++i) {
    const PlanMove& move = delta.moves[i];
    Status checked = CheckMove(move, masters_, num_dcs_);
    if (!checked.ok()) {
      while (i-- > 0) masters_[delta.moves[i].vertex] = delta.moves[i].from;
      fingerprint_ = fingerprint_before;
      return checked;
    }
    masters_[move.vertex] = move.to;
    fingerprint_ += MasterTerm(move.vertex, move.to) -
                    MasterTerm(move.vertex, move.from);
  }
  ++version_;
  return Status::Ok();
}

Status PlanReplica::InstallSnapshot(const PlanSnapshot& snapshot) {
  if (snapshot.num_dcs < 1) {
    return Status::InvalidArgument("plan snapshot has " +
                                   std::to_string(snapshot.num_dcs) +
                                   " data centers");
  }
  for (size_t v = 0; v < snapshot.masters.size(); ++v) {
    const DcId dc = snapshot.masters[v];
    if (dc < 0 || dc >= snapshot.num_dcs) {
      return Status::OutOfRange("plan snapshot masters vertex " +
                                std::to_string(v) + " at unknown DC " +
                                std::to_string(dc));
    }
  }
  masters_ = snapshot.masters;
  num_dcs_ = snapshot.num_dcs;
  version_ = snapshot.version;
  fingerprint_ = MastersFingerprint(masters_);
  return Status::Ok();
}

PlanSnapshot PlanReplica::Snapshot() const {
  PlanSnapshot snapshot;
  snapshot.version = version_;
  snapshot.num_dcs = num_dcs_;
  snapshot.masters = masters_;
  return snapshot;
}

std::string EncodePlanDelta(const PlanDelta& delta) {
  ByteWriter writer;
  writer.Write<uint64_t>(delta.base_version);
  writer.Write<uint64_t>(delta.moves.size());
  for (const PlanMove& move : delta.moves) {
    writer.Write<uint32_t>(move.vertex);
    writer.Write<int32_t>(move.from);
    writer.Write<int32_t>(move.to);
  }
  return writer.bytes();
}

Status DecodePlanDelta(const std::string& bytes, PlanDelta* out) {
  ByteReader reader(bytes);
  PlanDelta delta;
  uint64_t count = 0;
  if (!reader.Read(&delta.base_version) || !reader.Read(&count)) {
    return Status::InvalidArgument("plan delta payload truncated");
  }
  // 12 bytes per encoded move; bound the count by the bytes actually
  // present before any allocation (a corrupt count must not balloon).
  constexpr size_t kMoveBytes = sizeof(uint32_t) + 2 * sizeof(int32_t);
  if (count > reader.remaining() / kMoveBytes) {
    return Status::InvalidArgument("plan delta declares " +
                                   std::to_string(count) +
                                   " moves but the payload is short");
  }
  delta.moves.resize(count);
  for (PlanMove& move : delta.moves) {
    if (!reader.Read(&move.vertex) || !reader.Read(&move.from) ||
        !reader.Read(&move.to)) {
      return Status::InvalidArgument("plan delta payload truncated");
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("plan delta payload has trailing bytes");
  }
  *out = std::move(delta);
  return Status::Ok();
}

std::string EncodePlanSnapshot(const PlanSnapshot& snapshot) {
  ByteWriter writer;
  writer.Write<uint64_t>(snapshot.version);
  writer.Write<int32_t>(snapshot.num_dcs);
  writer.WriteVector(snapshot.masters);
  return writer.bytes();
}

Status DecodePlanSnapshot(const std::string& bytes, PlanSnapshot* out) {
  ByteReader reader(bytes);
  PlanSnapshot snapshot;
  if (!reader.Read(&snapshot.version) || !reader.Read(&snapshot.num_dcs) ||
      !reader.ReadVector(&snapshot.masters)) {
    return Status::InvalidArgument("plan snapshot payload truncated");
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument(
        "plan snapshot payload has trailing bytes");
  }
  *out = std::move(snapshot);
  return Status::Ok();
}

uint64_t MastersFingerprint(const std::vector<DcId>& masters) {
  uint64_t fingerprint = SplitMix64(masters.size());
  for (size_t v = 0; v < masters.size(); ++v) {
    fingerprint += MasterTerm(static_cast<VertexId>(v), masters[v]);
  }
  return fingerprint;
}

}  // namespace rlcut
