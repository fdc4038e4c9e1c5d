#ifndef RLCUT_NET_REPLICA_SERVICE_H_
#define RLCUT_NET_REPLICA_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "net/retry.h"
#include "net/transport.h"
#include "partition/plan_delta.h"

namespace rlcut {
namespace net {

/// Replica-sync protocol payloads (docs/distributed.md). Deltas and
/// snapshots use the partition codecs; the rest are the small control
/// messages below. All decode paths bound counts before allocating.
/// Version 2 carries the additive MastersFingerprint digest in HelloAck
/// and Ack; a version-1 peer hashed differently and is refused at the
/// handshake rather than resynced forever.
constexpr uint32_t kReplicaProtocolVersion = 2;

struct HelloMsg {
  uint32_t protocol_version = kReplicaProtocolVersion;
  uint64_t client_version = 0;
  uint64_t client_fingerprint = 0;
};

struct HelloAckMsg {
  uint64_t server_version = 0;
  uint64_t server_fingerprint = 0;
};

struct AckMsg {
  uint64_t version = 0;
  uint64_t fingerprint = 0;
};

struct NackMsg {
  uint64_t server_version = 0;
  std::string reason;
};

std::string EncodeHello(const HelloMsg& msg);
Status DecodeHello(const std::string& bytes, HelloMsg* out);
std::string EncodeHelloAck(const HelloAckMsg& msg);
Status DecodeHelloAck(const std::string& bytes, HelloAckMsg* out);
std::string EncodeAck(const AckMsg& msg);
Status DecodeAck(const std::string& bytes, AckMsg* out);
std::string EncodeNack(const NackMsg& msg);
Status DecodeNack(const std::string& bytes, NackMsg* out);

/// Counters a replica server accumulates across connections.
struct ReplicaServerStats {
  uint64_t connections = 0;
  uint64_t frames = 0;
  uint64_t deltas_applied = 0;
  uint64_t snapshots_installed = 0;
  uint64_t nacks = 0;
  uint64_t pings = 0;
};

struct ReplicaServerOptions {
  /// Per-recv idle wait; the connection stays open across timeouts
  /// (clients go quiet between sync intervals) until EOF or `stop`.
  int idle_timeout_ms = 1000;
};

/// The far side of the replica link: owns a PlanReplica and applies
/// whatever a well-formed client ships. A delta that does not chain
/// onto the current version is Nacked with the server's version — the
/// client answers with a full snapshot (resync). Malformed frames or
/// payloads close the connection; the replica keeps its last good
/// state, so a reconnecting client finds a consistent (if stale) peer.
///
/// Thread-safe: HandleFrame locks the replica, so one server instance
/// can serve sequential connections from a host loop while observers
/// read its state.
class ReplicaServer {
 public:
  explicit ReplicaServer(ReplicaServerOptions options = {})
      : options_(options) {}

  /// Processes one protocol frame and returns the response frame.
  /// Non-OK means the frame was malformed and the connection must be
  /// dropped (exposed for tests and the fuzz harness).
  Result<Frame> HandleFrame(const Frame& frame);

  /// Serves one connection until EOF, a malformed frame, or `stop`.
  /// Clean EOF returns OK; protocol or transport errors return the
  /// cause (the host loop logs and moves to the next connection).
  Status ServeConnection(Transport* transport,
                         const std::atomic<bool>* stop = nullptr);

  PlanSnapshot snapshot() const;
  uint64_t version() const;
  uint64_t fingerprint() const;
  ReplicaServerStats stats() const;

 private:
  ReplicaServerOptions options_;
  mutable std::mutex mu_;
  PlanReplica replica_;
  ReplicaServerStats stats_;
};

struct ReplicaClientOptions {
  /// Backoff/deadline for Flush-time convergence (the fail-closed
  /// barrier). PushDelta never blocks on this policy — mid-training
  /// failures degrade instead of stalling the trainer.
  RetryPolicy retry;
  int dial_timeout_ms = 2000;
  int recv_timeout_ms = 2000;
};

/// The owner-side half of the link: a ReplicaSink that mirrors every
/// pushed delta into a local PlanReplica (so it always holds the full
/// intended state) and ships it to a remote ReplicaServer.
///
/// Failure model (docs/distributed.md):
///  - PushDelta updates the mirror, then best-effort ships the delta.
///    Any transport failure flips the client into *degraded* mode —
///    PushDelta still returns OK and the trainer keeps going against
///    the mirror; the gap is surfaced through the net.client.degraded
///    gauge and the degraded() flag.
///  - While degraded, each PushDelta makes one cheap reconnect attempt;
///    on success the client heals by shipping a full snapshot.
///  - A server that Nacks (version gap — e.g. it restarted empty) or
///    Acks with a mismatched fingerprint triggers the same snapshot
///    resync.
///  - Flush() is the barrier: it retries under the client RetryPolicy
///    until the server confirms the mirror's exact version and
///    fingerprint, or returns a non-OK Status for callers to fail
///    closed on.
///
/// Single-caller: one thread drives Begin/PushDelta/Flush (the
/// trainer's or the session's cadence); degraded() may be read from
/// anywhere.
class ReplicaClient : public ReplicaSink {
 public:
  using Connector = std::function<Result<std::unique_ptr<Transport>>()>;

  explicit ReplicaClient(Connector connector,
                         ReplicaClientOptions options = {});
  ~ReplicaClient() override;

  /// A connector that dials `endpoint` over TCP with the client's dial
  /// timeout.
  static Connector TcpConnector(const std::string& endpoint,
                                int dial_timeout_ms);

  Status Begin(const PlanSnapshot& snapshot) override;
  Status PushDelta(const PlanDelta& delta) override;
  Status Flush() override;
  bool degraded() const override;
  uint64_t version() const override { return mirror_version(); }

  /// True if the client was degraded at any point since Begin().
  bool ever_degraded() const;

  uint64_t mirror_version() const;
  uint64_t mirror_fingerprint() const;
  uint64_t resyncs() const { return resyncs_; }
  uint64_t reconnects() const { return reconnects_; }

  void CloseConnection();

 private:
  /// One reconnect + handshake attempt; no retries.
  Status EnsureConnected();
  /// Drives the server to the mirror's exact state (snapshot resync if
  /// needed) and verifies the fingerprint. One attempt; no retries.
  Status SyncFully();
  /// Sends one frame and waits for its response.
  Status RoundTrip(const Frame& request, Frame* response);
  void EnterDegraded(const Status& cause);

  Connector connector_;
  ReplicaClientOptions options_;

  PlanReplica mirror_;
  std::unique_ptr<Transport> transport_;
  FrameDecoder decoder_;
  /// Server state as last confirmed on this connection; valid only
  /// while `server_synced_`.
  bool server_synced_ = false;
  uint64_t server_version_ = 0;

  std::atomic<bool> degraded_{false};
  std::atomic<bool> ever_degraded_{false};
  uint64_t resyncs_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t op_id_ = 0;
};

}  // namespace net
}  // namespace rlcut

#endif  // RLCUT_NET_REPLICA_SERVICE_H_
