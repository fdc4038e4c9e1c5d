#ifndef RLCUT_PARTITION_PLAN_DELTA_H_
#define RLCUT_PARTITION_PLAN_DELTA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace rlcut {

/// One committed master migration, as shipped to a replica. `from` is
/// carried so a replica can verify it is applying the delta onto the
/// state the trainer committed against.
struct PlanMove {
  VertexId vertex = 0;
  DcId from = 0;
  DcId to = 0;
};

/// An ordered batch of committed moves from one sync interval.
/// `base_version` is the replica version the delta applies on top of;
/// applying it advances the replica to `base_version + 1`.
struct PlanDelta {
  uint64_t base_version = 0;
  std::vector<PlanMove> moves;
};

/// A versioned full copy of the masters array: the resync unit of the
/// replica protocol. Installing a snapshot replaces the replica's whole
/// state (masters, DC count, version) in one step, which is how a
/// replica recovers from a version gap it cannot bridge with deltas.
struct PlanSnapshot {
  uint64_t version = 0;
  int32_t num_dcs = 0;
  std::vector<DcId> masters;
};

/// Wire codecs for deltas and snapshots (common/byte_io framing:
/// host-endian, every decoded count bounded by the payload size before
/// any allocation). These bytes travel inside net-transport frames on
/// the same machine or a trusted interconnect, matching the
/// single-machine envelope convention used by checkpoints.
std::string EncodePlanDelta(const PlanDelta& delta);
Status DecodePlanDelta(const std::string& bytes, PlanDelta* out);
std::string EncodePlanSnapshot(const PlanSnapshot& snapshot);
Status DecodePlanSnapshot(const std::string& bytes, PlanSnapshot* out);

/// Position-keyed additive digest of a masters array: the bit-identity
/// check two ends of a replica link exchange to detect silent
/// divergence (docs/distributed.md). It is
///   SplitMix64(|m|) + sum over v of SplitMix64((v << 32) | uint32(m[v]))
/// modulo 2^64. Each term is a bijective mix of its (vertex, DC) pair,
/// so a divergence at any single vertex always changes the digest, and
/// moving one master changes exactly one term: a PlanReplica keeps the
/// digest current in O(1) per move.
uint64_t MastersFingerprint(const std::vector<DcId>& masters);

/// A versioned copy of the masters array, kept in sync by applying
/// PlanDeltas in version order. It holds a plan on the far side of a
/// ReplicaSink: in the process split (src/net, docs/distributed.md) it
/// backs the client's mirror and the server's copy on the far side of
/// the RPC. The owner of the plan (a trainer or a session) keeps no
/// replica of its own.
///
/// Apply costs O(|delta|): moves apply in place and the fingerprint is
/// updated per move rather than recomputed.
class PlanReplica {
 public:
  PlanReplica() = default;
  PlanReplica(std::vector<DcId> masters, int num_dcs);

  /// Applies `delta` in order, in place. Fails, leaving the replica
  /// bit-identical to its pre-Apply state, if the delta's base version
  /// does not match this replica, a move's vertex or destination is out
  /// of range, or a move's `from` disagrees with the replica (the owner
  /// and the replica have diverged).
  Status Apply(const PlanDelta& delta);

  /// Replaces the replica's entire state with `snapshot`, including its
  /// version — the resync path after a version gap. Fails without
  /// mutating anything if the snapshot is internally inconsistent
  /// (num_dcs < 1 or a master outside [0, num_dcs)).
  Status InstallSnapshot(const PlanSnapshot& snapshot);

  /// The replica's current state as an installable snapshot.
  PlanSnapshot Snapshot() const;

  const std::vector<DcId>& masters() const { return masters_; }
  DcId master(VertexId v) const { return masters_[v]; }
  uint64_t version() const { return version_; }
  int num_dcs() const { return num_dcs_; }
  /// MastersFingerprint(masters()), maintained incrementally.
  uint64_t Fingerprint() const { return fingerprint_; }

 private:
  std::vector<DcId> masters_;
  int num_dcs_ = 0;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = MastersFingerprint({});
};

/// Where the owner of a plan ships it: an RLCutTrainer (its committed
/// moves, one delta every few batches) or a PartitioningSession (each
/// published plan as one delta). The owner's decisions never depend on
/// the sink — it is write-only — so a sink may lag, buffer, or drop to
/// a degraded mode without perturbing what the owner computes.
///
/// Contract: Begin() hands over the starting snapshot before any
/// deltas; each PushDelta() carries the moves since the previous one,
/// in order, with base_version equal to version(); Flush() must either
/// drive the far side to the pushed state (return OK) or report why it
/// could not (non-OK) — the fail-closed signal call sites act on.
/// degraded() reports whether the sink is currently operating in a
/// lossy/stale mode; implementations also surface it through src/obs
/// metrics.
///
/// The concrete network implementation is net::ReplicaClient
/// (docs/distributed.md).
class ReplicaSink {
 public:
  virtual ~ReplicaSink() = default;
  virtual Status Begin(const PlanSnapshot& snapshot) = 0;
  virtual Status PushDelta(const PlanDelta& delta) = 0;
  virtual Status Flush() = 0;
  virtual bool degraded() const = 0;
  /// Version of the sink's intended state (the base a follow-up delta
  /// must chain onto): advances by one per accepted PushDelta.
  virtual uint64_t version() const = 0;
};

}  // namespace rlcut

#endif  // RLCUT_PARTITION_PLAN_DELTA_H_
