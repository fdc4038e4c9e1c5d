#ifndef RLCUT_NET_TRANSPORT_H_
#define RLCUT_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/status.h"

namespace rlcut {
namespace net {

/// A bidirectional, connection-oriented byte stream. Two
/// implementations: TcpTransport (loopback/LAN sockets, the production
/// shape) and FlakyPipe (deterministic in-memory pair for tests and the
/// chaos oracle). Both consult the net.* fault-injection sites
/// (src/fault), so every failure mode the chaos lane exercises is the
/// same code path production would take.
///
/// Thread-safety: one sender and one receiver may use a transport
/// concurrently; concurrent Send calls (or concurrent Recv calls) must
/// be externally serialized.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocking send of all of `bytes`. Non-OK means the connection is
  /// unusable (callers reconnect; partial delivery is possible and the
  /// frame checksum catches it on the far side).
  virtual Status Send(const std::string& bytes) = 0;

  /// Waits up to `timeout_ms` for data and returns whatever arrived
  /// (at most an implementation-chosen chunk). An empty string means
  /// the timeout elapsed with the connection still healthy; a non-OK
  /// Status means EOF or a connection error.
  virtual Result<std::string> Recv(int timeout_ms) = 0;

  /// Closes the connection; pending and future Recv on the peer sees
  /// EOF once buffered bytes drain.
  virtual void Close() = 0;

  virtual bool closed() const = 0;
};

/// Frame types of the replica-sync protocol (docs/distributed.md).
enum class FrameType : uint8_t {
  kHello = 1,     // client -> server: protocol handshake
  kHelloAck = 2,  // server -> client: server version + fingerprint
  kDelta = 3,     // client -> server: EncodePlanDelta payload
  kSnapshot = 4,  // client -> server: EncodePlanSnapshot payload (resync)
  kAck = 5,       // server -> client: applied; new version + fingerprint
  kNack = 6,      // server -> client: rejected; server version + reason
  kPing = 7,      // client -> server: liveness probe
  kPong = 8,      // server -> client: liveness answer
};

/// Largest payload a frame may declare. Bounds the allocation a
/// corrupted or hostile length prefix can force; a 2^20-vertex snapshot
/// is ~4 MiB, so 64 MiB leaves ample headroom.
constexpr uint32_t kMaxFramePayload = 64u << 20;

/// One protocol message.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Frame wire format (host-endian, like every rlcut binary format):
///   u32 magic "RLNF" | u8 type | u32 payload size | payload |
///   u64 FNV-1a checksum over (type byte + payload)
std::string EncodeFrame(const Frame& frame);

/// Incremental frame parser over a byte stream. Feed() whatever Recv
/// returned; Next() pops complete frames. A malformed stream (bad
/// magic, oversized length, checksum mismatch) is unrecoverable — the
/// decoder stays in the error state and the connection must be torn
/// down, because frame boundaries can no longer be trusted.
class FrameDecoder {
 public:
  void Feed(const std::string& bytes) { buffer_ += bytes; }

  /// True with `*out` filled when a complete, checksum-valid frame was
  /// consumed; false when more bytes are needed; non-OK on corruption.
  Result<bool> Next(Frame* out);

  size_t buffered() const { return buffer_.size(); }

 private:
  std::string buffer_;
  bool corrupt_ = false;
};

/// Sends one encoded frame, consulting the net.frame_corrupt site: when
/// it fires the frame is transmitted with one byte flipped, so the
/// receiver's checksum check — not the injector — decides the outcome.
Status SendFrame(Transport* transport, const Frame& frame);

/// Receives frames until one is complete or `timeout_ms` elapses.
/// Timeout returns kIoError with a message containing "timed out";
/// corruption and EOF surface the decoder/transport error.
Status RecvFrame(Transport* transport, FrameDecoder* decoder,
                 int timeout_ms, Frame* out);

/// A deterministic in-memory duplex pipe. CreatePair() returns two
/// connected ends; bytes written to one are readable from the other.
/// "Flaky" because, like the socket transport, every operation consults
/// the net.* fault sites — under an armed schedule the pipe drops
/// connections, times out, and corrupts frames on demand, with no real
/// network in the loop.
class FlakyPipe : public Transport {
 public:
  static std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
  CreatePair();

  ~FlakyPipe() override;
  Status Send(const std::string& bytes) override;
  Result<std::string> Recv(int timeout_ms) override;
  void Close() override;
  bool closed() const override;

 private:
  struct Shared;
  FlakyPipe(std::shared_ptr<Shared> shared, int side);

  std::shared_ptr<Shared> shared_;
  int side_ = 0;
};

/// A listening TCP socket bound to 127.0.0.1. `port` 0 picks an
/// ephemeral port, readable from port() afterwards. Single-threaded:
/// Accept and Close must not run concurrently, so a server loop that
/// accepts on its own thread polls with a short Accept timeout and a
/// stop flag, and the listener is closed after that thread is joined.
class TcpListener {
 public:
  static Result<std::unique_ptr<TcpListener>> Listen(int port);

  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Waits up to `timeout_ms` for a connection. Timeout returns
  /// kIoError with "timed out" in the message.
  Result<std::unique_ptr<Transport>> Accept(int timeout_ms);

  int port() const { return port_; }

  /// Closes the listening socket; a later Accept returns an error.
  void Close();

 private:
  explicit TcpListener(int fd, int port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  int port_ = 0;
};

/// Connects to `endpoint` ("host:port"; host must resolve as a numeric
/// IPv4 address, e.g. "127.0.0.1:7070"). Consults net.connect_fail.
Result<std::unique_ptr<Transport>> DialTcp(const std::string& endpoint,
                                           int timeout_ms);

/// Splits "host:port"; non-OK on malformed input.
Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     int* port);

}  // namespace net
}  // namespace rlcut

#endif  // RLCUT_NET_TRANSPORT_H_
