#include "graph/stream.h"

#include <algorithm>

#include "common/logging.h"

namespace rlcut {

bool StreamBuffer::Push(const StreamEvent& event) {
  if (!seen_sequences_.insert(event.sequence).second) {
    ++stats_.duplicates_dropped;
    return false;
  }
  if (cut_once_ && event.edge.time <= last_watermark_) {
    ++stats_.late_deferred;
  }
  pending_.push_back(event);
  ++stats_.accepted;
  ++stats_.pending;
  return true;
}

MicroBatch MicroBatchAt(const std::vector<Edge>& edges, SimTime time) {
  MicroBatch batch;
  batch.watermark = time;
  batch.edges.reserve(edges.size());
  for (const Edge& e : edges) batch.edges.push_back(TimedEdge{e, time});
  return batch;
}

MicroBatch StreamBuffer::Cut(SimTime watermark) {
  if (cut_once_) {
    RLCUT_CHECK_GE(watermark.micros(), last_watermark_.micros())
        << "cut watermark moved backwards";
  }
  MicroBatch batch;
  batch.watermark = watermark;
  // Late events (time <= previous watermark) are already overdue: they
  // ship with this batch no matter where the new watermark lands.
  auto keep = [&](const StreamEvent& e) {
    return e.edge.time > watermark &&
           !(cut_once_ && e.edge.time <= last_watermark_);
  };
  std::vector<StreamEvent> cut;
  std::vector<StreamEvent> rest;
  cut.reserve(pending_.size());
  for (const StreamEvent& e : pending_) {
    (keep(e) ? rest : cut).push_back(e);
  }
  std::sort(cut.begin(), cut.end(),
            [](const StreamEvent& a, const StreamEvent& b) {
              if (a.edge.time != b.edge.time) return a.edge.time < b.edge.time;
              return a.sequence < b.sequence;
            });
  batch.edges.reserve(cut.size());
  for (const StreamEvent& e : cut) {
    batch.edges.push_back(e.edge);
    // Retire the shipped event's dedup entry: the set only guards the
    // in-flight window, so a year-long stream does not accumulate a
    // year of sequence ids (see the class comment for the redelivery
    // contract this buys).
    seen_sequences_.erase(e.sequence);
    ++stats_.sequences_retired;
  }
  pending_ = std::move(rest);
  stats_.pending = pending_.size();
  last_watermark_ = watermark;
  cut_once_ = true;
  return batch;
}

}  // namespace rlcut
