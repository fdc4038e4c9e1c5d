#include "net/replica_service.h"

#include <utility>

#include "common/byte_io.h"
#include "obs/metrics.h"

namespace rlcut {
namespace net {
namespace {

bool IsTimeout(const Status& status) {
  return status.code() == StatusCode::kIoError &&
         status.message().find("timed out") != std::string::npos;
}

bool IsEof(const Status& status) {
  return status.code() == StatusCode::kIoError &&
         status.message().find("EOF") != std::string::npos;
}

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string(what) + " payload truncated");
}

}  // namespace

std::string EncodeHello(const HelloMsg& msg) {
  ByteWriter writer;
  writer.Write<uint32_t>(msg.protocol_version);
  writer.Write<uint64_t>(msg.client_version);
  writer.Write<uint64_t>(msg.client_fingerprint);
  return writer.bytes();
}

Status DecodeHello(const std::string& bytes, HelloMsg* out) {
  ByteReader reader(bytes);
  HelloMsg msg;
  if (!reader.Read(&msg.protocol_version) ||
      !reader.Read(&msg.client_version) ||
      !reader.Read(&msg.client_fingerprint) || !reader.exhausted()) {
    return Truncated("hello");
  }
  *out = msg;
  return Status::Ok();
}

std::string EncodeHelloAck(const HelloAckMsg& msg) {
  ByteWriter writer;
  writer.Write<uint64_t>(msg.server_version);
  writer.Write<uint64_t>(msg.server_fingerprint);
  return writer.bytes();
}

Status DecodeHelloAck(const std::string& bytes, HelloAckMsg* out) {
  ByteReader reader(bytes);
  HelloAckMsg msg;
  if (!reader.Read(&msg.server_version) ||
      !reader.Read(&msg.server_fingerprint) || !reader.exhausted()) {
    return Truncated("hello-ack");
  }
  *out = msg;
  return Status::Ok();
}

std::string EncodeAck(const AckMsg& msg) {
  ByteWriter writer;
  writer.Write<uint64_t>(msg.version);
  writer.Write<uint64_t>(msg.fingerprint);
  return writer.bytes();
}

Status DecodeAck(const std::string& bytes, AckMsg* out) {
  ByteReader reader(bytes);
  AckMsg msg;
  if (!reader.Read(&msg.version) || !reader.Read(&msg.fingerprint) ||
      !reader.exhausted()) {
    return Truncated("ack");
  }
  *out = msg;
  return Status::Ok();
}

std::string EncodeNack(const NackMsg& msg) {
  ByteWriter writer;
  writer.Write<uint64_t>(msg.server_version);
  writer.WriteString(msg.reason);
  return writer.bytes();
}

Status DecodeNack(const std::string& bytes, NackMsg* out) {
  ByteReader reader(bytes);
  NackMsg msg;
  if (!reader.Read(&msg.server_version) ||
      !reader.ReadString(&msg.reason) || !reader.exhausted()) {
    return Truncated("nack");
  }
  *out = std::move(msg);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ReplicaServer

Result<Frame> ReplicaServer::HandleFrame(const Frame& frame) {
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.frames;
  Frame response;
  switch (frame.type) {
    case FrameType::kHello: {
      HelloMsg hello;
      RLCUT_RETURN_IF_ERROR(DecodeHello(frame.payload, &hello));
      if (hello.protocol_version != kReplicaProtocolVersion) {
        return Status::InvalidArgument(
            "unsupported replica protocol version " +
            std::to_string(hello.protocol_version));
      }
      HelloAckMsg ack;
      ack.server_version = replica_.version();
      ack.server_fingerprint = replica_.Fingerprint();
      response.type = FrameType::kHelloAck;
      response.payload = EncodeHelloAck(ack);
      return response;
    }
    case FrameType::kDelta: {
      PlanDelta delta;
      RLCUT_RETURN_IF_ERROR(DecodePlanDelta(frame.payload, &delta));
      const Status applied = replica_.Apply(delta);
      if (applied.ok()) {
        ++stats_.deltas_applied;
        AckMsg ack;
        ack.version = replica_.version();
        ack.fingerprint = replica_.Fingerprint();
        response.type = FrameType::kAck;
        response.payload = EncodeAck(ack);
      } else {
        ++stats_.nacks;
        NackMsg nack;
        nack.server_version = replica_.version();
        nack.reason = applied.ToString();
        response.type = FrameType::kNack;
        response.payload = EncodeNack(nack);
      }
      return response;
    }
    case FrameType::kSnapshot: {
      PlanSnapshot snapshot;
      RLCUT_RETURN_IF_ERROR(DecodePlanSnapshot(frame.payload, &snapshot));
      const Status installed = replica_.InstallSnapshot(snapshot);
      if (installed.ok()) {
        ++stats_.snapshots_installed;
        AckMsg ack;
        ack.version = replica_.version();
        ack.fingerprint = replica_.Fingerprint();
        response.type = FrameType::kAck;
        response.payload = EncodeAck(ack);
      } else {
        ++stats_.nacks;
        NackMsg nack;
        nack.server_version = replica_.version();
        nack.reason = installed.ToString();
        response.type = FrameType::kNack;
        response.payload = EncodeNack(nack);
      }
      return response;
    }
    case FrameType::kPing: {
      ++stats_.pings;
      response.type = FrameType::kPong;
      return response;
    }
    default:
      return Status::InvalidArgument(
          "unexpected frame type " +
          std::to_string(static_cast<int>(frame.type)));
  }
}

Status ReplicaServer::ServeConnection(Transport* transport,
                                      const std::atomic<bool>* stop) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.connections;
  }
  FrameDecoder decoder;
  for (;;) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return Status::Ok();
    }
    Frame frame;
    const Status received =
        RecvFrame(transport, &decoder, options_.idle_timeout_ms, &frame);
    if (!received.ok()) {
      if (IsTimeout(received)) continue;  // Idle client; keep waiting.
      if (IsEof(received)) return Status::Ok();
      return received;
    }
    Result<Frame> response = HandleFrame(frame);
    if (!response.ok()) return response.status();
    RLCUT_RETURN_IF_ERROR(SendFrame(transport, response.value()));
  }
}

PlanSnapshot ReplicaServer::snapshot() const {
  std::unique_lock<std::mutex> lock(mu_);
  return replica_.Snapshot();
}

uint64_t ReplicaServer::version() const {
  std::unique_lock<std::mutex> lock(mu_);
  return replica_.version();
}

uint64_t ReplicaServer::fingerprint() const {
  std::unique_lock<std::mutex> lock(mu_);
  return replica_.Fingerprint();
}

ReplicaServerStats ReplicaServer::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// ReplicaClient

ReplicaClient::ReplicaClient(Connector connector,
                             ReplicaClientOptions options)
    : connector_(std::move(connector)), options_(options) {}

ReplicaClient::~ReplicaClient() { CloseConnection(); }

ReplicaClient::Connector ReplicaClient::TcpConnector(
    const std::string& endpoint, int dial_timeout_ms) {
  return [endpoint, dial_timeout_ms]() {
    return DialTcp(endpoint, dial_timeout_ms);
  };
}

void ReplicaClient::CloseConnection() {
  transport_.reset();
  decoder_ = FrameDecoder();
  server_synced_ = false;
}

void ReplicaClient::EnterDegraded(const Status& cause) {
  (void)cause;
  CloseConnection();
  if (!degraded_.exchange(true, std::memory_order_relaxed)) {
    obs::DefaultRegistry().GetCounter("net.client.degrade_events")
        ->Increment();
  }
  ever_degraded_.store(true, std::memory_order_relaxed);
  obs::DefaultRegistry().GetGauge("net.client.degraded")->Set(1);
}

Status ReplicaClient::RoundTrip(const Frame& request, Frame* response) {
  Status sent = SendFrame(transport_.get(), request);
  if (!sent.ok()) {
    CloseConnection();
    return sent;
  }
  Status received = RecvFrame(transport_.get(), &decoder_,
                              options_.recv_timeout_ms, response);
  if (!received.ok()) {
    // A late response would desynchronize request/response pairing, so
    // any failed round trip costs the connection.
    CloseConnection();
    return received;
  }
  return Status::Ok();
}

Status ReplicaClient::EnsureConnected() {
  if (transport_ != nullptr && !transport_->closed()) return Status::Ok();
  CloseConnection();
  Result<std::unique_ptr<Transport>> dialed = connector_();
  if (!dialed.ok()) return dialed.status();
  transport_ = std::move(dialed.value());
  ++reconnects_;
  obs::DefaultRegistry().GetCounter("net.client.reconnects")->Increment();
  HelloMsg hello;
  hello.client_version = mirror_.version();
  hello.client_fingerprint = mirror_.Fingerprint();
  Frame request;
  request.type = FrameType::kHello;
  request.payload = EncodeHello(hello);
  Frame response;
  RLCUT_RETURN_IF_ERROR(RoundTrip(request, &response));
  if (response.type != FrameType::kHelloAck) {
    CloseConnection();
    return Status::Internal("expected hello-ack, got frame type " +
                            std::to_string(static_cast<int>(response.type)));
  }
  HelloAckMsg ack;
  Status decoded = DecodeHelloAck(response.payload, &ack);
  if (!decoded.ok()) {
    CloseConnection();
    return decoded;
  }
  server_version_ = ack.server_version;
  server_synced_ = ack.server_version == mirror_.version() &&
                   ack.server_fingerprint == mirror_.Fingerprint();
  return Status::Ok();
}

Status ReplicaClient::SyncFully() {
  RLCUT_RETURN_IF_ERROR(EnsureConnected());
  if (server_synced_) return Status::Ok();
  Frame request;
  request.type = FrameType::kSnapshot;
  request.payload = EncodePlanSnapshot(mirror_.Snapshot());
  Frame response;
  RLCUT_RETURN_IF_ERROR(RoundTrip(request, &response));
  if (response.type == FrameType::kNack) {
    NackMsg nack;
    if (DecodeNack(response.payload, &nack).ok()) {
      CloseConnection();
      return Status::Internal("server rejected snapshot: " + nack.reason);
    }
  }
  if (response.type != FrameType::kAck) {
    CloseConnection();
    return Status::Internal("expected ack for snapshot, got frame type " +
                            std::to_string(static_cast<int>(response.type)));
  }
  AckMsg ack;
  Status decoded = DecodeAck(response.payload, &ack);
  if (!decoded.ok()) {
    CloseConnection();
    return decoded;
  }
  if (ack.version != mirror_.version() ||
      ack.fingerprint != mirror_.Fingerprint()) {
    CloseConnection();
    return Status::Internal(
        "server state diverged after snapshot install (version " +
        std::to_string(ack.version) + " vs " +
        std::to_string(mirror_.version()) + ")");
  }
  server_version_ = ack.version;
  server_synced_ = true;
  ++resyncs_;
  obs::DefaultRegistry().GetCounter("net.client.resyncs")->Increment();
  return Status::Ok();
}

Status ReplicaClient::Begin(const PlanSnapshot& snapshot) {
  RLCUT_RETURN_IF_ERROR(mirror_.InstallSnapshot(snapshot));
  server_synced_ = false;
  const Status synced = SyncFully();
  if (!synced.ok()) {
    // Start degraded: the trainer proceeds against the mirror and the
    // link heals on a later push or at Flush().
    EnterDegraded(synced);
  }
  return Status::Ok();
}

Status ReplicaClient::PushDelta(const PlanDelta& delta) {
  // The mirror is authoritative for what the server must end up with;
  // a delta the mirror rejects is a caller bug, not a network fault.
  RLCUT_RETURN_IF_ERROR(mirror_.Apply(delta));
  server_synced_ = false;
  obs::DefaultRegistry().GetCounter("net.client.pushes")->Increment();

  if (degraded_.load(std::memory_order_relaxed)) {
    // One cheap heal attempt per push; stay degraded on failure.
    if (SyncFully().ok()) {
      degraded_.store(false, std::memory_order_relaxed);
      obs::DefaultRegistry().GetGauge("net.client.degraded")->Set(0);
    } else {
      CloseConnection();
      obs::DefaultRegistry()
          .GetCounter("net.client.push_degraded")
          ->Increment();
    }
    return Status::Ok();
  }

  Status shipped = [&]() -> Status {
    RLCUT_RETURN_IF_ERROR(EnsureConnected());
    if (server_version_ != delta.base_version) {
      // Version gap (server restarted or lagged): snapshot resync.
      return SyncFully();
    }
    Frame request;
    request.type = FrameType::kDelta;
    request.payload = EncodePlanDelta(delta);
    Frame response;
    RLCUT_RETURN_IF_ERROR(RoundTrip(request, &response));
    if (response.type == FrameType::kNack) {
      // The server's version disagrees with what it told us — resync.
      return SyncFully();
    }
    if (response.type != FrameType::kAck) {
      CloseConnection();
      return Status::Internal("expected ack for delta, got frame type " +
                              std::to_string(
                                  static_cast<int>(response.type)));
    }
    AckMsg ack;
    RLCUT_RETURN_IF_ERROR(DecodeAck(response.payload, &ack));
    if (ack.version != mirror_.version() ||
        ack.fingerprint != mirror_.Fingerprint()) {
      // Silent divergence caught by the fingerprint: resync.
      server_synced_ = false;
      return SyncFully();
    }
    server_version_ = ack.version;
    server_synced_ = true;
    return Status::Ok();
  }();
  // Every push is a Delta -> Ack round trip on the connection, so a
  // dead link surfaces at the next push; no separate liveness probe.
  if (!shipped.ok()) EnterDegraded(shipped);
  return Status::Ok();
}

Status ReplicaClient::Flush() {
  const Status flushed = RetryCall(
      options_.retry, ++op_id_, "net.client.flush",
      [&]() -> Status {
        const Status synced = SyncFully();
        if (!synced.ok()) {
          // Force a fresh dial on the next attempt.
          CloseConnection();
        }
        return synced;
      });
  if (flushed.ok()) {
    degraded_.store(false, std::memory_order_relaxed);
    obs::DefaultRegistry().GetGauge("net.client.degraded")->Set(0);
  } else {
    EnterDegraded(flushed);
  }
  return flushed;
}

bool ReplicaClient::degraded() const {
  return degraded_.load(std::memory_order_relaxed);
}

bool ReplicaClient::ever_degraded() const {
  return ever_degraded_.load(std::memory_order_relaxed);
}

uint64_t ReplicaClient::mirror_version() const { return mirror_.version(); }

uint64_t ReplicaClient::mirror_fingerprint() const {
  return mirror_.Fingerprint();
}

}  // namespace net
}  // namespace rlcut
