#include "check/fuzz.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "cloud/topology.h"
#include "cloud/topology_schedule.h"
#include "common/byte_io.h"
#include "common/random.h"
#include "graph/graph.h"
#include "graph/rlg.h"
#include "net/replica_service.h"
#include "net/transport.h"
#include "partition/plan_delta.h"
#include "partition/plan_io.h"
#include "rlcut/checkpoint.h"
#include "rlcut/session.h"

namespace rlcut {
namespace check {
namespace {

// ---- Scratch files ---------------------------------------------------

Status WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    return Status::IoError("cannot write scratch file " + path);
  }
  return Status::Ok();
}

// ---- Checkpoint wire format (format constants, mirrored here so the
// fuzzer can build adversarial files byte by byte) ---------------------

constexpr char kCkpMagic[8] = {'R', 'L', 'C', 'U', 'T', 'C', 'K', 'P'};
// Current version plus the oldest still-loadable one; v1 lacks the
// session's PRNG stream count (see rlcut/checkpoint.cc).
constexpr uint32_t kCkpMinVersion = 1;
constexpr uint32_t kCkpVersion = 2;
// File layout: magic(8) version(4) payload_size(8) payload checksum(8).
constexpr size_t kCkpPayloadSizeOffset = 12;
constexpr size_t kCkpHeaderBytes = 20;

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t hash = 14695981039346656037ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

template <typename T>
void Append(std::string* out, T value) {
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
void Overwrite(std::string* out, size_t offset, T value) {
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

// A structurally valid payload plus the offsets of its count fields, so
// adversarial variants can surgically corrupt exactly one count.
struct PayloadLayout {
  std::string bytes;
  size_t masters_count_offset = 0;
  size_t history_count_offset = 0;
  size_t rng_count_offset = 0;
  size_t rng_data_offset = 0;
};

// Builds a structurally valid payload for `version` (v2 adds the
// uint32 PRNG stream count between visits_remaining and the history).
// It carries two streams, like a file a sharded build saved.
PayloadLayout BuildValidPayload(uint32_t version) {
  PayloadLayout layout;
  std::string& p = layout.bytes;
  const uint64_t num_vertices = 4;
  const int num_dcs = 2;
  Append<uint64_t>(&p, num_vertices);
  Append<uint32_t>(&p, static_cast<uint32_t>(num_dcs));
  Append<uint64_t>(&p, 7);                        // seed
  Append<uint32_t>(&p, 0);                        // model = hybrid
  Append<uint32_t>(&p, 5);                        // theta
  layout.masters_count_offset = p.size();
  Append<uint64_t>(&p, num_vertices);             // masters count
  for (uint64_t v = 0; v < num_vertices; ++v) {
    Append<int32_t>(&p, static_cast<int32_t>(v % num_dcs));
  }
  Append<uint64_t>(&p, num_vertices);             // pool.num_vertices
  Append<int32_t>(&p, num_dcs);                   // pool.num_dcs
  Append<uint64_t>(&p, num_vertices * num_dcs);   // prob count
  for (uint64_t i = 0; i < num_vertices * num_dcs; ++i) {
    Append<double>(&p, 0.5);
  }
  Append<uint64_t>(&p, num_vertices * num_dcs);   // mean_q count
  for (uint64_t i = 0; i < num_vertices * num_dcs; ++i) {
    Append<double>(&p, 0.25);
  }
  Append<uint64_t>(&p, num_vertices * num_dcs);   // count count
  for (uint64_t i = 0; i < num_vertices * num_dcs; ++i) {
    Append<uint32_t>(&p, 3);
  }
  Append<int32_t>(&p, 6);                         // session.next_step
  Append<uint8_t>(&p, 1);                         // started
  Append<uint8_t>(&p, 0);                         // finished
  Append<int64_t>(&p, 40);                        // visits_remaining
  if (version >= 2) {
    Append<uint32_t>(&p, 2);                      // stream count (v2)
  }
  layout.history_count_offset = p.size();
  Append<uint64_t>(&p, 2);                        // history count
  for (int s = 0; s < 2; ++s) {
    Append<int32_t>(&p, s);                       // step
    Append<double>(&p, 1.0);                      // sample_rate
    Append<uint64_t>(&p, 4);                      // num_agents
    Append<double>(&p, 0.125);                    // seconds
    Append<double>(&p, 2.0);                      // transfer_seconds
    Append<double>(&p, 0.5);                      // cost_dollars
    Append<uint64_t>(&p, 1);                      // migrations
    Append<uint64_t>(&p, 0);                      // rollbacks
  }
  layout.rng_count_offset = p.size();
  Append<uint64_t>(&p, 2);                        // rng state count
  layout.rng_data_offset = p.size();
  for (int t = 0; t < 2; ++t) {
    for (int w = 0; w < 4; ++w) {
      Append<uint64_t>(&p, 0x9e3779b97f4a7c15ull + 13 * t + w);
    }
  }
  return layout;
}

std::string WrapCheckpointFile(const std::string& payload,
                               uint32_t version = kCkpVersion) {
  std::string file;
  file.append(kCkpMagic, sizeof(kCkpMagic));
  Append<uint32_t>(&file, version);
  Append<uint64_t>(&file, payload.size());
  file += payload;
  Append<uint64_t>(&file, Fnv1a64(payload.data(), payload.size()));
  return file;
}

// Re-fixes the trailing checksum of a mutated checkpoint file so payload
// mutations survive the checksum gate and reach DecodePayload. No-op
// when the declared payload size no longer fits the file.
bool RefixCheckpointChecksum(std::string* file) {
  if (file->size() < kCkpHeaderBytes + sizeof(uint64_t)) return false;
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, file->data() + kCkpPayloadSizeOffset,
              sizeof(payload_size));
  if (payload_size > file->size() - kCkpHeaderBytes - sizeof(uint64_t)) {
    return false;
  }
  const uint64_t checksum = Fnv1a64(file->data() + kCkpHeaderBytes,
                                    static_cast<size_t>(payload_size));
  Overwrite<uint64_t>(file, kCkpHeaderBytes + payload_size, checksum);
  return true;
}

std::vector<CorpusCase> CheckpointCorpus() {
  std::vector<CorpusCase> corpus;
  const PayloadLayout layout = BuildValidPayload(kCkpVersion);
  const std::string valid = WrapCheckpointFile(layout.bytes);
  corpus.push_back({"valid", valid, true});

  {
    // A v1 file (no stream count field) must keep loading.
    const PayloadLayout v1 = BuildValidPayload(kCkpMinVersion);
    corpus.push_back(
        {"valid-v1", WrapCheckpointFile(v1.bytes, kCkpMinVersion), true});
  }
  {
    // Empty history and rng sections are legal.
    PayloadLayout empty = BuildValidPayload(kCkpVersion);
    empty.bytes.resize(empty.history_count_offset);
    Append<uint64_t>(&empty.bytes, 0);  // history count
    Append<uint64_t>(&empty.bytes, 0);  // rng count
    corpus.push_back(
        {"valid-empty-history", WrapCheckpointFile(empty.bytes), true});
  }

  corpus.push_back({"empty-file", std::string(), false});
  corpus.push_back({"truncated-header", valid.substr(0, 10), false});
  corpus.push_back(
      {"truncated-payload", valid.substr(0, valid.size() - 20), false});

  {
    std::string bad = valid;
    bad[0] = 'X';
    corpus.push_back({"bad-magic", bad, false});
  }
  {
    std::string bad = valid;
    Overwrite<uint32_t>(&bad, sizeof(kCkpMagic), kCkpVersion + 1);
    corpus.push_back({"bad-version", bad, false});
  }
  {
    std::string bad = valid;
    bad[kCkpHeaderBytes + 3] ^= 0x40;  // payload bit flip, stale checksum
    corpus.push_back({"checksum-mismatch", bad, false});
  }
  {
    // Declared payload far beyond the file: must be rejected before the
    // payload buffer is allocated (pre-fix this requested ~1 TB).
    std::string bad = valid;
    Overwrite<uint64_t>(&bad, kCkpPayloadSizeOffset, 1ull << 40);
    corpus.push_back({"huge-payload-size", bad, false});
  }
  {
    // Checksum-valid payload claiming 2^56 masters: ReadVector's
    // remaining-bytes bound must reject it without allocating.
    PayloadLayout bad = BuildValidPayload(kCkpVersion);
    Overwrite<uint64_t>(&bad.bytes, bad.masters_count_offset, 1ull << 56);
    corpus.push_back(
        {"huge-masters-count", WrapCheckpointFile(bad.bytes), false});
  }
  {
    // Checksum-valid payload claiming 2^56 history records (pre-fix:
    // unbounded resize of ~6 PB).
    PayloadLayout bad = BuildValidPayload(kCkpVersion);
    Overwrite<uint64_t>(&bad.bytes, bad.history_count_offset, 1ull << 56);
    corpus.push_back(
        {"huge-history-count", WrapCheckpointFile(bad.bytes), false});
  }
  {
    // Checksum-valid payload claiming 2^56 rng states.
    PayloadLayout bad = BuildValidPayload(kCkpVersion);
    Overwrite<uint64_t>(&bad.bytes, bad.rng_count_offset, 1ull << 56);
    corpus.push_back(
        {"huge-rng-count", WrapCheckpointFile(bad.bytes), false});
  }
  {
    // Checksum-valid file whose first rng state is all zeros: resuming
    // it would abort inside Rng::SetState, so the loader must reject.
    PayloadLayout bad = BuildValidPayload(kCkpVersion);
    for (int w = 0; w < 4; ++w) {
      Overwrite<uint64_t>(&bad.bytes,
                          bad.rng_data_offset + w * sizeof(uint64_t), 0);
    }
    corpus.push_back(
        {"zero-rng-state", WrapCheckpointFile(bad.bytes), false});
  }
  {
    // Checksum-valid v2 file whose declared stream count disagrees with
    // its rng state count: the file is inconsistent.
    PayloadLayout bad = BuildValidPayload(kCkpVersion);
    Overwrite<uint32_t>(&bad.bytes,
                        bad.history_count_offset - sizeof(uint32_t), 5);
    corpus.push_back(
        {"stream-rng-count-mismatch", WrapCheckpointFile(bad.bytes), false});
  }
  {
    // Extra bytes inside the checksummed payload must be detected.
    std::string padded = layout.bytes;
    Append<uint64_t>(&padded, 0xdeadbeef);
    corpus.push_back(
        {"trailing-payload-bytes", WrapCheckpointFile(padded), false});
  }
  return corpus;
}

// ---- Plan corpus -----------------------------------------------------

std::vector<CorpusCase> PlanCorpus() {
  std::vector<CorpusCase> corpus;
  corpus.push_back({"valid-hybrid",
                    "rlcut-plan v1\n"
                    "model hybrid theta 100\n"
                    "masters 4\n0\n1\n0\n1\n"
                    "edges 0\n",
                    true});
  corpus.push_back({"valid-vertex",
                    "rlcut-plan v1\n"
                    "model vertex theta 0\n"
                    "masters 3\n0\n1\n2\n"
                    "edges 4\n0\n1\n2\n-1\n",
                    true});
  // Values are only range-checked against a concrete problem in
  // ApplyPlan; the parser accepts any integer DC id.
  corpus.push_back({"out-of-range-dc-values",
                    "rlcut-plan v1\n"
                    "model edge theta 1\n"
                    "masters 2\n-7\n1000\n"
                    "edges 0\n",
                    true});
  corpus.push_back({"empty-file", "", false});
  corpus.push_back({"bad-header", "rlcut-plan v2\n", false});
  corpus.push_back({"bad-model",
                    "rlcut-plan v1\nmodel pagerank theta 100\n", false});
  corpus.push_back({"missing-theta",
                    "rlcut-plan v1\nmodel hybrid\nmasters 0\n", false});
  // Counts larger than the file itself: must be rejected before the
  // resize (pre-fix this requested a ~400 GB masters vector).
  corpus.push_back({"huge-masters-count",
                    "rlcut-plan v1\n"
                    "model hybrid theta 100\n"
                    "masters 99999999999\n0\n",
                    false});
  corpus.push_back({"huge-edges-count",
                    "rlcut-plan v1\n"
                    "model vertex theta 0\n"
                    "masters 1\n0\n"
                    "edges 99999999999\n0\n",
                    false});
  corpus.push_back({"truncated-masters",
                    "rlcut-plan v1\n"
                    "model hybrid theta 100\n"
                    "masters 4\n0\n1\n",
                    false});
  corpus.push_back({"garbage-master-value",
                    "rlcut-plan v1\n"
                    "model hybrid theta 100\n"
                    "masters 2\n0\nbanana\n",
                    false});
  corpus.push_back({"missing-edges-section",
                    "rlcut-plan v1\n"
                    "model hybrid theta 100\n"
                    "masters 1\n0\n",
                    false});
  return corpus;
}

// ---- Net-schedule corpus ---------------------------------------------

std::vector<CorpusCase> NetScheduleCorpus() {
  std::vector<CorpusCase> corpus;
  corpus.push_back({"valid",
                    "rlcut-net-schedule v1\n"
                    "# diurnal dip, then a regional outage\n"
                    "0 * bandwidth 0.5 0.5\n"
                    "4 1 price 2.0\n"
                    "8 1 outage\n"
                    "12 1 restore\n"
                    "16 * restore\n",
                    true});
  corpus.push_back({"valid-empty", "rlcut-net-schedule v1\n", true});
  corpus.push_back(
      {"valid-comments-only",
       "rlcut-net-schedule v1\n# nothing happens\n\n# still nothing\n",
       true});
  corpus.push_back({"empty-file", "", false});
  corpus.push_back({"bad-header", "rlcut-net-schedule v2\n", false});
  corpus.push_back({"unknown-kind",
                    "rlcut-net-schedule v1\n0 * earthquake 0.5\n", false});
  corpus.push_back({"bad-dc-token",
                    "rlcut-net-schedule v1\n0 one outage\n", false});
  corpus.push_back({"dc-out-of-range",
                    "rlcut-net-schedule v1\n0 9 outage\n", false});
  corpus.push_back({"missing-bandwidth-factor",
                    "rlcut-net-schedule v1\n0 * bandwidth 0.5\n", false});
  corpus.push_back({"missing-price-factor",
                    "rlcut-net-schedule v1\n0 * price\n", false});
  corpus.push_back({"negative-factor",
                    "rlcut-net-schedule v1\n0 * bandwidth -0.5 0.5\n",
                    false});
  corpus.push_back({"zero-factor",
                    "rlcut-net-schedule v1\n0 0 bandwidth 0 1\n", false});
  corpus.push_back({"garbage-step",
                    "rlcut-net-schedule v1\nnoon * outage\n", false});
  return corpus;
}

// ---- .rlg graph corpus -----------------------------------------------

// The .rlg header checksum covers bytes [0, 96); the checksum itself
// lives at [96, 104). Mirrored from graph/rlg.h's format doc so the
// fuzzer can surgically corrupt checksummed fields.
constexpr size_t kRlgChecksumCoverage = 96;

// Re-fixes the header checksum of a mutated .rlg file so header-field
// mutations reach the section validators instead of dying at the gate.
bool RefixRlgHeaderChecksum(std::string* file) {
  if (file->size() < kRlgHeaderSize) return false;
  const uint64_t checksum =
      Fnv1a64(file->data(), kRlgChecksumCoverage);
  Overwrite<uint64_t>(file, kRlgChecksumCoverage, checksum);
  return true;
}

// Serializes a small graph through the real writer and returns the file
// bytes (the writer only targets paths, so round-trip via scratch).
std::string RlgBytes(bool ordered) {
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 3);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 0);
  const Graph g = std::move(builder).Build();
  const std::string path = ScratchPath("fuzz");
  Status saved;
  if (ordered) {
    const VertexPermutation perm = DegreeDescendingOrder(g);
    saved = WriteRlgFile(g, &perm, {}, path);
  } else {
    saved = SaveRlgGraph(g, path);
  }
  if (!saved.ok()) return {};
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

std::vector<CorpusCase> RlgCorpus() {
  std::vector<CorpusCase> corpus;
  const std::string valid = RlgBytes(/*ordered=*/false);
  const std::string ordered = RlgBytes(/*ordered=*/true);
  corpus.push_back({"valid", valid, true});
  corpus.push_back({"valid-ordered-orig-ids", ordered, true});

  corpus.push_back({"empty-file", std::string(), false});
  corpus.push_back({"truncated-header", valid.substr(0, 10), false});
  corpus.push_back(
      {"truncated-mid-header", valid.substr(0, kRlgHeaderSize - 1), false});
  // Declared size no longer matches: every byte-level truncation of the
  // array region must be caught before any array is dereferenced.
  corpus.push_back(
      {"truncated-arrays", valid.substr(0, valid.size() - 16), false});
  {
    std::string bad = valid;
    bad[0] = 'X';
    corpus.push_back({"bad-magic", bad, false});
  }
  {
    std::string bad = valid;
    Overwrite<uint32_t>(&bad, 8, 99);  // version
    RefixRlgHeaderChecksum(&bad);
    corpus.push_back({"bad-version", bad, false});
  }
  {
    std::string bad = valid;
    Overwrite<uint32_t>(&bad, 12, 0xfe);  // unknown flag bits
    RefixRlgHeaderChecksum(&bad);
    corpus.push_back({"unknown-flags", bad, false});
  }
  {
    // Header bit flip without a checksum refix: the checksum gate must
    // catch it.
    std::string bad = valid;
    bad[40] ^= 0x04;
    corpus.push_back({"stale-header-checksum", bad, false});
  }
  {
    // Vertex count that cannot fit VertexId; checksum valid so the
    // explicit range check is what rejects it.
    std::string bad = valid;
    Overwrite<uint64_t>(&bad, 16, 0xFFFFFFFFull);
    RefixRlgHeaderChecksum(&bad);
    corpus.push_back({"vertex-count-overflow", bad, false});
  }
  {
    // Edge count far beyond the file: section bounds must reject before
    // any E-sized read (the .rlg analogue of the allocation bombs).
    std::string bad = valid;
    Overwrite<uint64_t>(&bad, 24, 1ull << 56);
    RefixRlgHeaderChecksum(&bad);
    corpus.push_back({"huge-edge-count", bad, false});
  }
  {
    // out_targets section pointing past the end of the file.
    std::string bad = valid;
    Overwrite<uint64_t>(&bad, 32 + 1 * 8, 1ull << 40);
    RefixRlgHeaderChecksum(&bad);
    corpus.push_back({"section-offset-beyond-file", bad, false});
  }
  {
    // Misaligned section offset.
    std::string bad = valid;
    uint64_t offset = 0;
    std::memcpy(&offset, bad.data() + 32, sizeof(offset));
    Overwrite<uint64_t>(&bad, 32, offset + 3);
    RefixRlgHeaderChecksum(&bad);
    corpus.push_back({"misaligned-section", bad, false});
  }
  if (!ordered.empty()) {
    // Two vertices claiming the same original id: the orig-ids section
    // must be validated as a bijection at open.
    std::string bad = ordered;
    uint64_t orig_offset = 0;
    std::memcpy(&orig_offset, bad.data() + 32 + 6 * 8,
                sizeof(orig_offset));
    uint32_t first = 0;
    std::memcpy(&first, bad.data() + orig_offset, sizeof(first));
    Overwrite<uint32_t>(&bad, orig_offset + sizeof(uint32_t), first);
    corpus.push_back({"orig-ids-not-bijection", bad, false});
  }
  {
    // Structurally corrupt arrays behind a valid header: an out_target
    // beyond the vertex count, caught by deep validation.
    std::string bad = valid;
    uint64_t targets_offset = 0;
    std::memcpy(&targets_offset, bad.data() + 32 + 1 * 8,
                sizeof(targets_offset));
    Overwrite<uint32_t>(&bad, targets_offset, 0xCAFE);
    corpus.push_back({"target-out-of-range", bad, false});
  }
  {
    // Non-monotone out_offsets behind a valid header.
    std::string bad = valid;
    uint64_t offsets_offset = 0;
    std::memcpy(&offsets_offset, bad.data() + 32, sizeof(offsets_offset));
    Overwrite<uint64_t>(&bad, offsets_offset + 8, ~0ull >> 8);
    corpus.push_back({"offsets-not-monotone", bad, false});
  }
  return corpus;
}

// ---- Net-frame corpus ------------------------------------------------

// Frame wire layout, mirrored from net/transport.cc so the fuzzer can
// build and surgically corrupt raw streams:
//   u32 magic "RLNF" | u8 type | u32 payload size | payload |
//   u64 FNV-1a over (type byte + payload)
constexpr char kNetFrameMagic[4] = {'R', 'L', 'N', 'F'};
constexpr size_t kNetFrameHeaderBytes = 9;
constexpr size_t kNetFrameSizeOffset = 5;
constexpr size_t kNetFrameChecksumBytes = 8;

std::string NetFrame(net::FrameType type, const std::string& payload) {
  net::Frame frame;
  frame.type = type;
  frame.payload = payload;
  return net::EncodeFrame(frame);
}

// A small consistent delta/snapshot pair: 4 masters over 2 DCs.
std::string NetDeltaPayload(uint64_t base_version) {
  PlanDelta delta;
  delta.base_version = base_version;
  delta.moves.push_back({0, 0, 1});
  delta.moves.push_back({3, 1, 0});
  return EncodePlanDelta(delta);
}

std::string NetSnapshotPayload(uint64_t version) {
  PlanSnapshot snapshot;
  snapshot.version = version;
  snapshot.num_dcs = 2;
  snapshot.masters = {0, 1, 0, 1};
  return EncodePlanSnapshot(snapshot);
}

// Re-fixes the per-frame checksums of a mutated stream so payload
// mutations survive the checksum gate and reach the protocol decoders.
// Walks complete frames from the front; stops at the first spot where
// boundaries can no longer be trusted.
bool RefixNetFrameChecksums(std::string* file) {
  bool fixed = false;
  size_t offset = 0;
  while (file->size() - offset >= kNetFrameHeaderBytes) {
    if (std::memcmp(file->data() + offset, kNetFrameMagic,
                    sizeof(kNetFrameMagic)) != 0) {
      break;
    }
    uint32_t payload_size = 0;
    std::memcpy(&payload_size, file->data() + offset + kNetFrameSizeOffset,
                sizeof(payload_size));
    const size_t total =
        kNetFrameHeaderBytes + payload_size + kNetFrameChecksumBytes;
    if (payload_size > net::kMaxFramePayload ||
        total > file->size() - offset) {
      break;
    }
    const uint64_t checksum = Fnv1a64(
        file->data() + offset + sizeof(kNetFrameMagic), 1 + payload_size);
    Overwrite<uint64_t>(file, offset + kNetFrameHeaderBytes + payload_size,
                        checksum);
    fixed = true;
    offset += total;
  }
  return fixed;
}

std::vector<CorpusCase> NetFrameCorpus() {
  std::vector<CorpusCase> corpus;
  net::HelloMsg hello;
  hello.client_version = 3;
  hello.client_fingerprint = 0xabcdef;
  const std::string valid_hello =
      NetFrame(net::FrameType::kHello, net::EncodeHello(hello));
  corpus.push_back({"valid-hello", valid_hello, true});
  {
    // A full client session: handshake, resync snapshot, chained delta,
    // liveness probe.
    std::string stream = valid_hello;
    stream += NetFrame(net::FrameType::kSnapshot, NetSnapshotPayload(3));
    stream += NetFrame(net::FrameType::kDelta, NetDeltaPayload(3));
    stream += NetFrame(net::FrameType::kPing, "");
    corpus.push_back({"valid-client-session", stream, true});
  }
  {
    // The server-side halves of the protocol.
    net::HelloAckMsg hello_ack;
    hello_ack.server_version = 4;
    hello_ack.server_fingerprint = 0x1234;
    net::AckMsg ack;
    ack.version = 5;
    ack.fingerprint = 0x5678;
    net::NackMsg nack;
    nack.server_version = 2;
    nack.reason = "version gap";
    std::string stream =
        NetFrame(net::FrameType::kHelloAck, net::EncodeHelloAck(hello_ack));
    stream += NetFrame(net::FrameType::kAck, net::EncodeAck(ack));
    stream += NetFrame(net::FrameType::kNack, net::EncodeNack(nack));
    stream += NetFrame(net::FrameType::kPong, "");
    corpus.push_back({"valid-server-session", stream, true});
  }
  {
    PlanDelta empty;
    empty.base_version = 9;
    corpus.push_back(
        {"valid-empty-delta",
         NetFrame(net::FrameType::kDelta, EncodePlanDelta(empty)), true});
  }

  const std::string valid_delta =
      NetFrame(net::FrameType::kDelta, NetDeltaPayload(1));
  corpus.push_back({"empty-file", std::string(), false});
  corpus.push_back({"truncated-header", valid_delta.substr(0, 6), false});
  corpus.push_back(
      {"truncated-payload", valid_delta.substr(0, valid_delta.size() - 4),
       false});
  {
    std::string bad = valid_delta;
    bad[0] = 'X';
    corpus.push_back({"bad-magic", bad, false});
  }
  {
    // Payload bit flip without a checksum refix: the frame checksum
    // gate must catch it.
    std::string bad = valid_delta;
    bad[kNetFrameHeaderBytes + 2] ^= 0x40;
    corpus.push_back({"stale-frame-checksum", bad, false});
  }
  {
    // Declared payload size beyond kMaxFramePayload: must be rejected
    // before any payload buffer is sized.
    std::string bad = valid_delta;
    Overwrite<uint32_t>(&bad, kNetFrameSizeOffset, 1u << 30);
    corpus.push_back({"oversized-declared-payload", bad, false});
  }
  {
    // Checksum-valid delta claiming 2^56 moves: DecodePlanDelta's
    // remaining-bytes bound must reject without allocating.
    std::string payload;
    Append<uint64_t>(&payload, 1);          // base_version
    Append<uint64_t>(&payload, 1ull << 56);  // move count
    corpus.push_back(
        {"huge-delta-count", NetFrame(net::FrameType::kDelta, payload),
         false});
  }
  {
    // Checksum-valid snapshot claiming 2^56 masters.
    std::string payload;
    Append<uint64_t>(&payload, 7);          // version
    Append<int32_t>(&payload, 2);           // num_dcs
    Append<uint64_t>(&payload, 1ull << 56);  // masters count
    corpus.push_back(
        {"huge-snapshot-count",
         NetFrame(net::FrameType::kSnapshot, payload), false});
  }
  {
    // Delta payload with undeclared trailing bytes.
    std::string payload = NetDeltaPayload(1);
    Append<uint32_t>(&payload, 0xdead);
    corpus.push_back(
        {"delta-trailing-bytes", NetFrame(net::FrameType::kDelta, payload),
         false});
  }
  corpus.push_back({"unknown-frame-type",
                    NetFrame(static_cast<net::FrameType>(99), "??"), false});
  corpus.push_back(
      {"nack-truncated",
       NetFrame(net::FrameType::kNack, std::string(4, '\0')), false});
  corpus.push_back(
      {"ping-with-payload", NetFrame(net::FrameType::kPing, "x"), false});
  {
    // Garbage after a valid frame: either bad magic or a forever-
    // incomplete header; both must reject, not hang or accept.
    std::string bad = valid_delta + "xyz";
    corpus.push_back({"trailing-garbage", bad, false});
  }
  return corpus;
}

// Decodes a raw byte stream as replica-protocol frames: every frame
// must parse, every payload must decode for its type, and the stream
// must be fully consumed. Decoded payloads are round-trip re-encoded
// (mismatch -> kInternal), and client->server frames are additionally
// pushed through a live ReplicaServer::HandleFrame — its accept/reject
// is protocol state, not validity, so only its crash-freedom is under
// test here.
Status NetFrameLoadOnce(const std::string& bytes) {
  net::FrameDecoder decoder;
  decoder.Feed(bytes);
  net::ReplicaServer server;
  net::Frame frame;
  uint64_t frames = 0;
  while (true) {
    Result<bool> next = decoder.Next(&frame);
    if (!next.ok()) return next.status();
    if (!*next) break;
    ++frames;
    Status decoded;
    std::string reencoded;
    switch (frame.type) {
      case net::FrameType::kHello: {
        net::HelloMsg msg;
        decoded = net::DecodeHello(frame.payload, &msg);
        if (decoded.ok()) reencoded = net::EncodeHello(msg);
        break;
      }
      case net::FrameType::kHelloAck: {
        net::HelloAckMsg msg;
        decoded = net::DecodeHelloAck(frame.payload, &msg);
        if (decoded.ok()) reencoded = net::EncodeHelloAck(msg);
        break;
      }
      case net::FrameType::kDelta: {
        PlanDelta delta;
        decoded = DecodePlanDelta(frame.payload, &delta);
        if (decoded.ok()) reencoded = EncodePlanDelta(delta);
        break;
      }
      case net::FrameType::kSnapshot: {
        PlanSnapshot snapshot;
        decoded = DecodePlanSnapshot(frame.payload, &snapshot);
        if (decoded.ok()) reencoded = EncodePlanSnapshot(snapshot);
        break;
      }
      case net::FrameType::kAck: {
        net::AckMsg msg;
        decoded = net::DecodeAck(frame.payload, &msg);
        if (decoded.ok()) reencoded = net::EncodeAck(msg);
        break;
      }
      case net::FrameType::kNack: {
        net::NackMsg msg;
        decoded = net::DecodeNack(frame.payload, &msg);
        if (decoded.ok()) reencoded = net::EncodeNack(msg);
        break;
      }
      case net::FrameType::kPing:
      case net::FrameType::kPong:
        if (!frame.payload.empty()) {
          decoded = Status::InvalidArgument("ping/pong carries a payload");
        }
        break;
      default:
        decoded = Status::InvalidArgument(
            "unknown frame type " +
            std::to_string(static_cast<int>(frame.type)));
        break;
    }
    if (!decoded.ok()) return decoded;
    if (!reencoded.empty() && reencoded != frame.payload) {
      return Status::Internal("frame payload did not round-trip");
    }
    switch (frame.type) {
      case net::FrameType::kHello:
      case net::FrameType::kDelta:
      case net::FrameType::kSnapshot:
      case net::FrameType::kPing:
        (void)server.HandleFrame(frame);
        break;
      default:
        break;
    }
  }
  if (decoder.buffered() > 0) {
    return Status::InvalidArgument("trailing bytes of an incomplete frame");
  }
  if (frames == 0) {
    return Status::InvalidArgument("stream contains no frames");
  }
  return Status::Ok();
}

// ---- Session corpus --------------------------------------------------

// RLCutSession::SaveCheckpoint's envelope magic ("RLCUTSSN" v1). The
// envelope layout is the trainer checkpoint's, so
// RefixCheckpointChecksum applies to session files too.
constexpr char kSessionMagic[8] = {'R', 'L', 'C', 'U', 'T', 'S', 'S', 'N'};
constexpr uint32_t kSessionVersion = 1;

// A session payload over 4 vertices, 2 DCs and 3 edges, field by field
// in SaveCheckpoint's order. `variant` picks one shape: "" is a session
// mid-stream (trained, published twice, one vertex pending), "fresh" one
// just opened; the rest are invalid: a vertex-indexed array one entry
// short ("locations", "input_sizes", "masters", "last_published",
// "affected"), a pool of the wrong size ("pool"), an edge past the
// vertex set ("edge"), a master outside the DCs ("dc") or no DCs
// ("no-dcs").
std::string SessionPayload(const std::string& variant) {
  const uint64_t n = 4;
  const int32_t dcs = variant == "no-dcs" ? 0 : 2;
  auto length = [&](const char* array) {
    return variant == array ? n - 1 : n;
  };
  auto dc_array = [&](const char* array) {
    std::vector<DcId> values(length(array));
    for (size_t v = 0; v < values.size(); ++v) {
      values[v] = static_cast<DcId>(v % 2);
    }
    return values;
  };
  const bool fresh = variant == "fresh";
  ByteWriter w;
  w.Write<uint64_t>(n);
  w.Write<uint32_t>(5);       // theta
  w.Write<double>(10.0);      // cost budget
  w.Write<uint64_t>(7);       // seed
  w.Write<int32_t>(dcs);
  for (int32_t r = 0; r < dcs; ++r) {
    w.WriteString("dc" + std::to_string(r));
    w.Write<double>(1.0);     // uplink Gbps
    w.Write<double>(2.0);     // downlink Gbps
    w.Write<double>(0.05);    // upload price
  }
  w.WriteVector(dc_array("locations"));
  w.WriteVector(std::vector<Edge>{
      {0, 1}, {1, 2}, {2, variant == "edge" ? VertexId{4} : VertexId{3}}});
  w.WriteString("PageRank");
  w.Write<double>(8.0);       // apply base bytes
  w.Write<double>(4.0);       // apply bytes per out-edge
  w.Write<double>(8.0);       // gather base bytes
  w.WriteVector(std::vector<double>{1.0, 1.0});  // activity
  w.WriteVector(std::vector<double>(length("input_sizes"), 1e6));
  std::vector<DcId> masters = dc_array("masters");
  if (variant == "dc") masters[0] = 2;
  if (!fresh && masters.size() > 1) masters[1] = 0;
  w.WriteVector(masters);
  const uint64_t pool_vertices = length("pool");
  w.Write<uint64_t>(pool_vertices);
  w.Write<int32_t>(dcs);
  const size_t pool_size = pool_vertices * static_cast<size_t>(dcs);
  w.WriteVector(std::vector<double>(pool_size, 0.5));     // prob
  w.WriteVector(std::vector<double>(pool_size, 0.25));    // mean_q
  w.WriteVector(std::vector<uint32_t>(pool_size, 3));     // count
  w.Write<uint8_t>(fresh ? 0 : 1);                        // trained once
  w.Write<uint64_t>(fresh ? 0 : 2);                       // version
  w.WriteVector(dc_array("last_published"));
  w.Write<uint64_t>(fresh ? ~uint64_t{0} : 12);           // budget vertices
  w.Write<double>(1e9);                                   // budget bytes
  w.Write<int64_t>(fresh ? INT64_MIN : 3600000000);       // watermark
  std::vector<uint8_t> affected(length("affected"), 0);
  if (!fresh) affected[2] = 1;
  w.WriteVector(affected);
  return w.bytes();
}

std::vector<CorpusCase> SessionCorpus() {
  std::vector<CorpusCase> corpus;
  const std::string payload = SessionPayload("");
  const std::string valid =
      WrapEnvelope(kSessionMagic, kSessionVersion, payload);
  corpus.push_back({"valid", valid, true});
  corpus.push_back(
      {"valid-fresh",
       WrapEnvelope(kSessionMagic, kSessionVersion, SessionPayload("fresh")),
       true});

  corpus.push_back({"empty-file", std::string(), false});
  corpus.push_back({"truncated-header", valid.substr(0, 10), false});
  corpus.push_back(
      {"truncated-file", valid.substr(0, valid.size() - 5), false});
  // Checksum-valid envelopes around a cut payload reach the decoder.
  for (size_t keep : {size_t{4}, payload.size() / 3, payload.size() / 2,
                      payload.size() - 1}) {
    corpus.push_back(
        {"truncated-payload-" + std::to_string(keep),
         WrapEnvelope(kSessionMagic, kSessionVersion, payload.substr(0, keep)),
         false});
  }
  const std::pair<const char*, const char*> invalid[] = {
      {"mismatched-locations-size", "locations"},
      {"mismatched-input-sizes-size", "input_sizes"},
      {"mismatched-masters-size", "masters"},
      {"mismatched-last-published-size", "last_published"},
      {"mismatched-pending-flags-size", "affected"},
      {"mismatched-pool-size", "pool"},
      {"edge-out-of-range", "edge"},
      {"master-dc-out-of-range", "dc"},
      {"zero-dcs", "no-dcs"}};
  for (const auto& [name, variant] : invalid) {
    corpus.push_back(
        {name,
         WrapEnvelope(kSessionMagic, kSessionVersion, SessionPayload(variant)),
         false});
  }
  corpus.push_back({"trailing-bytes",
                    WrapEnvelope(kSessionMagic, kSessionVersion,
                                 payload + std::string(3, '\0')),
                    false});
  corpus.push_back({"bad-magic",
                    WrapEnvelope(kCkpMagic, kSessionVersion, payload), false});
  corpus.push_back({"bad-version",
                    WrapEnvelope(kSessionMagic, kSessionVersion + 1, payload),
                    false});
  {
    std::string bad = valid;
    bad[kCkpHeaderBytes + 3] ^= 0x10;  // payload byte, stale checksum
    corpus.push_back({"checksum-mismatch", bad, false});
  }
  return corpus;
}

// Restores a session from `path`; an accepted file must re-save and
// reload to the same problem, plan and lifecycle state.
Status SessionLoadOnce(const std::string& path) {
  Result<std::unique_ptr<RLCutSession>> loaded =
      RLCutSession::Restore(path, RLCutSessionOptions{});
  if (!loaded.ok()) return loaded.status();
  const std::string copy = ScratchPath("fuzz");
  Status save = (*loaded)->SaveCheckpoint(copy);
  Result<std::unique_ptr<RLCutSession>> again(Status::Internal("not run"));
  if (save.ok()) again = RLCutSession::Restore(copy, RLCutSessionOptions{});
  RemoveWithSidecars(copy);
  if (!save.ok()) return Status::Internal(save.message());
  if (!again.ok()) {
    return Status::Internal("round-trip reload failed: " +
                            again.status().message());
  }
  const RLCutSession& a = **loaded;
  const RLCutSession& b = **again;
  if (a.num_vertices() != b.num_vertices() ||
      a.num_edges() != b.num_edges() || a.version() != b.version() ||
      a.watermark() != b.watermark() ||
      a.last_published_masters() != b.last_published_masters() ||
      a.live_state()->masters() != b.live_state()->masters()) {
    return Status::Internal("round-trip changed the session");
  }
  return Status::Ok();
}

// ---- Loader execution ------------------------------------------------

// The 4-DC reference environment every schedule corpus entry validates
// against.
Topology ScheduleBase() { return MakeUniformTopology(4); }

Status LoadOnce(LoaderKind kind, const std::string& path) {
  switch (kind) {
    case LoaderKind::kCheckpoint: {
      Result<TrainerCheckpoint> loaded = LoadTrainerCheckpoint(path);
      if (!loaded.ok()) return loaded.status();
      // Round-trip: what the loader accepts, the saver must reproduce.
      const std::string copy = ScratchPath("fuzz");
      Status save = SaveTrainerCheckpoint(*loaded, copy);
      if (!save.ok()) return Status::Internal(save.message());
      Result<TrainerCheckpoint> again = LoadTrainerCheckpoint(copy);
      std::remove(copy.c_str());
      if (!again.ok()) {
        return Status::Internal("round-trip reload failed: " +
                                again.status().message());
      }
      if (again->num_vertices != loaded->num_vertices ||
          again->num_dcs != loaded->num_dcs ||
          again->masters != loaded->masters ||
          again->session.history.size() !=
              loaded->session.history.size() ||
          again->session.rng_states != loaded->session.rng_states) {
        return Status::Internal("round-trip changed the checkpoint");
      }
      return Status::Ok();
    }
    case LoaderKind::kPlan: {
      Result<PartitionPlan> loaded = LoadPlan(path);
      if (!loaded.ok()) return loaded.status();
      const std::string copy = ScratchPath("fuzz");
      Status save = SavePlan(*loaded, copy);
      if (!save.ok()) return Status::Internal(save.message());
      Result<PartitionPlan> again = LoadPlan(copy);
      std::remove(copy.c_str());
      if (!again.ok()) {
        return Status::Internal("round-trip reload failed: " +
                                again.status().message());
      }
      if (again->model != loaded->model ||
          again->masters != loaded->masters ||
          again->edge_dcs != loaded->edge_dcs) {
        return Status::Internal("round-trip changed the plan");
      }
      return Status::Ok();
    }
    case LoaderKind::kNetSchedule: {
      Result<TopologySchedule> loaded =
          LoadTopologySchedule(path, ScheduleBase());
      if (!loaded.ok()) return loaded.status();
      // Exercise the loaded schedule the way the trainer would.
      (void)loaded->EffectiveAt(0);
      (void)loaded->EffectiveAt(1 << 20);
      return Status::Ok();
    }
    case LoaderKind::kRlgGraph: {
      MmapGraph::Options options;
      options.validate_structure = true;
      Result<MmapGraph> loaded = MmapGraph::Open(path, options);
      if (!loaded.ok()) return loaded.status();
      // Round-trip: re-save the mapped graph and reload; the dual CSR
      // must survive byte-identically in structure.
      const std::string copy = ScratchPath("fuzz");
      const Graph& g = loaded->graph();
      Status save = SaveRlgGraph(g, copy);
      if (!save.ok()) return Status::Internal(save.message());
      Result<MmapGraph> again = MmapGraph::Open(copy, options);
      if (!again.ok()) {
        std::remove(copy.c_str());
        return Status::Internal("round-trip reload failed: " +
                                again.status().message());
      }
      Status mismatch = Status::Ok();
      const Graph& h = again->graph();
      if (h.num_vertices() != g.num_vertices() ||
          h.num_edges() != g.num_edges()) {
        mismatch = Status::Internal("round-trip changed the graph shape");
      } else {
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          if (h.EdgeSource(e) != g.EdgeSource(e) ||
              h.EdgeTarget(e) != g.EdgeTarget(e)) {
            mismatch = Status::Internal("round-trip changed edge " +
                                        std::to_string(e));
            break;
          }
        }
      }
      std::remove(copy.c_str());
      return mismatch;
    }
    case LoaderKind::kNetFrame:
      // Frames are stream bytes, not files; RunLoaderOnBytes dispatches
      // them before the scratch-file round-trip.
      return NetFrameLoadOnce(std::string());
    case LoaderKind::kSession:
      return SessionLoadOnce(path);
  }
  return Status::Internal("unknown loader kind");
}

}  // namespace

const char* LoaderName(LoaderKind kind) {
  switch (kind) {
    case LoaderKind::kCheckpoint:
      return "checkpoint";
    case LoaderKind::kPlan:
      return "plan";
    case LoaderKind::kNetSchedule:
      return "net-schedule";
    case LoaderKind::kRlgGraph:
      return "rlg-graph";
    case LoaderKind::kNetFrame:
      return "net-frame";
    case LoaderKind::kSession:
      return "session";
  }
  return "?";
}

std::vector<CorpusCase> BuildSeedCorpus(LoaderKind kind) {
  switch (kind) {
    case LoaderKind::kCheckpoint:
      return CheckpointCorpus();
    case LoaderKind::kPlan:
      return PlanCorpus();
    case LoaderKind::kNetSchedule:
      return NetScheduleCorpus();
    case LoaderKind::kRlgGraph:
      return RlgCorpus();
    case LoaderKind::kNetFrame:
      return NetFrameCorpus();
    case LoaderKind::kSession:
      return SessionCorpus();
  }
  return {};
}

Status RunLoaderOnBytes(LoaderKind kind, const std::string& bytes) {
  if (kind == LoaderKind::kNetFrame) return NetFrameLoadOnce(bytes);
  const std::string path = ScratchPath("fuzz");
  if (Status s = WriteBytes(path, bytes); !s.ok()) return s;
  Status result = LoadOnce(kind, path);
  std::remove(path.c_str());
  return result;
}

namespace {

// Each loader's seed corpus, built once per process (indexed by kind;
// kAllLoaders lists the kinds in enum order).
const std::vector<CorpusCase>& SeedCorpus(LoaderKind kind) {
  static const std::vector<std::vector<CorpusCase>> corpora = [] {
    std::vector<std::vector<CorpusCase>> all;
    for (LoaderKind k : kAllLoaders) all.push_back(BuildSeedCorpus(k));
    return all;
  }();
  return corpora[static_cast<size_t>(kind)];
}

}  // namespace

void ReplayCorpus(LoaderKind kind, LaneReport* report) {
  for (const char* count : {"inputs", "accepted", "rejected"}) {
    report->Add(count, 0);
  }
  for (const CorpusCase& c : SeedCorpus(kind)) {
    report->Add("inputs", 1);
    const Status status = RunLoaderOnBytes(kind, c.bytes);
    report->Add(status.ok() ? "accepted" : "rejected", 1);
    if (status.ok() != c.expect_ok) {
      std::ostringstream out;
      out << LoaderName(kind) << " corpus case '" << c.name << "': expected "
          << (c.expect_ok ? "accept" : "reject") << ", got "
          << (status.ok() ? "accept" : "reject: " + status.message());
      report->failures.push_back(out.str());
    }
  }
}

void FuzzLoader(LoaderKind kind, uint64_t seed, LaneReport* report) {
  report->Add("accepted", 0);
  report->Add("rejected", 0);
  const std::vector<CorpusCase>& corpus = SeedCorpus(kind);
  if (corpus.empty()) return;
  Rng rng(seed);
  const uint64_t kInterestingInts[] = {
      0,          1,          0x7f,       0xff,        1ull << 31,
      1ull << 32, 1ull << 40, 1ull << 56, ~0ull,       ~0ull >> 1};

  std::string bytes = corpus[rng.UniformInt(corpus.size())].bytes;
  const int num_mutations = 1 + static_cast<int>(rng.UniformInt(3));
  for (int mi = 0; mi < num_mutations && !bytes.empty(); ++mi) {
    switch (rng.UniformInt(4)) {
      case 0:  // truncate
        bytes.resize(rng.UniformInt(bytes.size() + 1));
        break;
      case 1: {  // bit flip
        const size_t pos = rng.UniformInt(bytes.size());
        bytes[pos] = static_cast<char>(
            static_cast<unsigned char>(bytes[pos]) ^ (1u << rng.UniformInt(8)));
        break;
      }
      case 2: {  // splice a chunk from another seed
        const std::string& donor = corpus[rng.UniformInt(corpus.size())].bytes;
        if (donor.empty()) break;
        const size_t src = rng.UniformInt(donor.size());
        const size_t len =
            1 + rng.UniformInt(std::min<size_t>(donor.size() - src, 16));
        const size_t dst = rng.UniformInt(bytes.size());
        bytes.replace(dst, std::min(len, bytes.size() - dst),
                      donor.substr(src, len));
        break;
      }
      default: {  // overwrite with an interesting integer
        if (bytes.size() < sizeof(uint64_t)) break;
        const uint64_t value =
            kInterestingInts[rng.UniformInt(std::size(kInterestingInts))];
        const size_t pos = rng.UniformInt(bytes.size() - sizeof(uint64_t) + 1);
        std::memcpy(bytes.data() + pos, &value, sizeof(value));
        break;
      }
    }
  }
  // Half the checkpoint / session / .rlg / net-frame mutants get a valid
  // checksum so mutations reach the payload / section validators instead
  // of dying at the checksum gate.
  if ((kind == LoaderKind::kCheckpoint || kind == LoaderKind::kSession) &&
      rng.Bernoulli(0.5)) {
    RefixCheckpointChecksum(&bytes);
  }
  if (kind == LoaderKind::kRlgGraph && rng.Bernoulli(0.5)) {
    RefixRlgHeaderChecksum(&bytes);
  }
  if (kind == LoaderKind::kNetFrame && rng.Bernoulli(0.5)) {
    RefixNetFrameChecksums(&bytes);
  }
  // The invariant under fuzzing: a clean Status either way — never a
  // crash, never an allocation bomb, and accepted inputs round-trip.
  const Status status = RunLoaderOnBytes(kind, bytes);
  report->Add(status.ok() ? "accepted" : "rejected", 1);
  if (status.code() == StatusCode::kInternal) {
    report->failures.push_back(std::string(LoaderName(kind)) + ": " +
                               status.message());
  }
}

void RunCorpusCase(uint64_t /*seed*/, LaneReport* report) {
  for (LoaderKind kind : kAllLoaders) ReplayCorpus(kind, report);
}

void RunFuzzCase(uint64_t seed, LaneReport* report) {
  FuzzLoader(kAllLoaders[seed % std::size(kAllLoaders)], seed, report);
}

}  // namespace check
}  // namespace rlcut
