#ifndef RLCUT_GRAPH_STREAM_H_
#define RLCUT_GRAPH_STREAM_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/sim_time.h"
#include "graph/temporal.h"

namespace rlcut {

/// One edge insertion as delivered by the transport. `sequence` is a
/// producer-assigned unique id; the buffer uses it to drop duplicate
/// deliveries (at-least-once transports redeliver) and to give same-
/// timestamp events a deterministic order.
struct StreamEvent {
  TimedEdge edge;
  uint64_t sequence = 0;
};

/// A closed batch of edge insertions, ready for
/// PartitioningSession::ApplyDelta. Edges are sorted by
/// (time, sequence); `watermark` is the cut time — every edge satisfies
/// edge.time <= watermark, and no later Cut yields an edge at or before
/// it unless it arrived late (late arrivals ride the next batch).
struct MicroBatch {
  std::vector<TimedEdge> edges;
  SimTime watermark;

  bool empty() const { return edges.empty(); }
};

/// A window of untimed edges (e.g. a SplitEdges slice) as one
/// micro-batch: every edge stamped `time`, which is also the watermark.
MicroBatch MicroBatchAt(const std::vector<Edge>& edges, SimTime time);

/// Running totals of what the buffer has seen.
struct StreamBufferStats {
  /// Events admitted into some batch (past or pending).
  uint64_t accepted = 0;
  /// Redelivered events dropped by sequence-id dedup.
  uint64_t duplicates_dropped = 0;
  /// Events that arrived with a timestamp at or before an already-cut
  /// watermark; they are deferred into the next batch, not lost.
  uint64_t late_deferred = 0;
  /// Events admitted but not yet cut into a batch.
  uint64_t pending = 0;
  /// Sequence ids released from the dedup set because their event was
  /// cut into a batch. Steady-state invariant:
  ///   accepted == sequences_retired + pending
  /// — the dedup set only holds ids of pending events, so buffer
  /// memory is bounded by the distance between pushes and cuts, not by
  /// the lifetime of the stream.
  uint64_t sequences_retired = 0;
};

/// Reorder/dedup buffer between a temporal edge transport and a
/// PartitioningSession. Push events in any arrival order; Cut(t) closes
/// a micro-batch of everything with time <= t in deterministic
/// (time, sequence) order. Determinism under arrival-order shuffles is
/// the property the streaming oracle replays against: any permutation
/// of Push calls between two Cuts yields bit-identical batches.
///
/// Memory is bounded: Cut retires the sequence ids of the events it
/// ships, so both the pending list and the dedup set track only the
/// in-flight window between cuts — a long-lived daemon does not grow
/// with stream length. The trade is a bounded redelivery window: a
/// duplicate delivery is only recognized while its original is still
/// pending; one redelivered after its batch was cut re-enters as a
/// late event (at-least-once delivery, same as the transport itself).
class StreamBuffer {
 public:
  /// Admits `event` unless its sequence id is pending (duplicate
  /// delivery; dropped, counted). Events at or before the last cut
  /// watermark are late: still admitted, counted, carried by the next
  /// Cut regardless of its watermark. Returns true if admitted.
  bool Push(const StreamEvent& event);

  /// Closes the batch of pending events with time <= `watermark`, plus
  /// every late event admitted since the previous Cut. The returned
  /// edges are sorted by (time, sequence). `watermark` must not move
  /// backwards across calls.
  MicroBatch Cut(SimTime watermark);

  /// Watermark of the last Cut, or SimTime::Min() before the first.
  SimTime last_watermark() const { return last_watermark_; }

  const StreamBufferStats& stats() const { return stats_; }

 private:
  std::vector<StreamEvent> pending_;
  std::unordered_set<uint64_t> seen_sequences_;
  SimTime last_watermark_ = SimTime::Min();
  bool cut_once_ = false;
  StreamBufferStats stats_;
};

}  // namespace rlcut

#endif  // RLCUT_GRAPH_STREAM_H_
