// Unit tests for the src/net transport stack: retry policy, frame
// codec, plan delta/snapshot wire formats, the replica protocol state
// machine, and the client end-to-end over FlakyPipe and TCP loopback
// (docs/distributed.md).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "gtest/gtest.h"
#include "net/replica_service.h"
#include "net/retry.h"
#include "net/transport.h"
#include "partition/plan_delta.h"

namespace rlcut {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::ReplicaClient;
using net::ReplicaClientOptions;
using net::ReplicaServer;
using net::RetryPolicy;

// ---- RetryPolicy -----------------------------------------------------

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinJitterBounds) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 4;
  policy.max_backoff_ms = 64;
  policy.multiplier = 2.0;
  policy.jitter = 0.25;
  double base = 4;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double ms = net::BackoffMs(policy, /*op_id=*/7, attempt);
    EXPECT_GE(ms, base * 0.75) << "attempt " << attempt;
    EXPECT_LE(ms, base * 1.25) << "attempt " << attempt;
    base = std::min(base * 2, 64.0);
  }
}

TEST(RetryPolicyTest, BackoffIsDeterministicInSeedOpAndAttempt) {
  RetryPolicy policy;
  policy.seed = 42;
  EXPECT_EQ(net::BackoffMs(policy, 3, 2), net::BackoffMs(policy, 3, 2));
  // Different ops (and different attempts) draw decorrelated jitter.
  policy.jitter = 0.5;
  EXPECT_NE(net::BackoffMs(policy, 3, 2), net::BackoffMs(policy, 4, 2));
}

TEST(RetryCallTest, SucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 0.01;
  int calls = 0;
  net::RetryOutcome outcome;
  const Status status = net::RetryCall(
      policy, 1, "test.op",
      [&]() -> Status {
        return ++calls < 3 ? Status::IoError("flaky") : Status::Ok();
      },
      nullptr, &outcome);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_FALSE(outcome.exhausted);
}

TEST(RetryCallTest, ExhaustionReturnsLastErrorWithAttemptCount) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0.01;
  net::RetryOutcome outcome;
  const Status status = net::RetryCall(
      policy, 1, "test.op",
      [] { return Status::IoError("still down"); }, nullptr, &outcome);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("3 attempts"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("still down"), std::string::npos);
  EXPECT_TRUE(outcome.exhausted);
}

TEST(RetryCallTest, DeadlineStopsRetriesEarly) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ms = 20;
  policy.max_backoff_ms = 20;
  policy.jitter = 0;
  policy.deadline_seconds = 0.05;
  int calls = 0;
  net::RetryOutcome outcome;
  const Status status = net::RetryCall(
      policy, 1, "test.op",
      [&] {
        ++calls;
        return Status::IoError("down");
      },
      nullptr, &outcome);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_LT(calls, 10);  // nowhere near max_attempts
}

TEST(RetryCallTest, CancelStopsRetrying) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_ms = 5;
  std::atomic<bool> cancel{false};
  int calls = 0;
  const Status status = net::RetryCall(
      policy, 1, "test.op",
      [&] {
        if (++calls == 2) cancel.store(true);
        return Status::IoError("down");
      },
      &cancel);
  EXPECT_FALSE(status.ok());
  EXPECT_LE(calls, 3);
}

// ---- Frame codec -----------------------------------------------------

TEST(FrameTest, EncodeDecodeRoundTrip) {
  Frame in;
  in.type = FrameType::kDelta;
  in.payload = "hello frames";
  FrameDecoder decoder;
  decoder.Feed(net::EncodeFrame(in));
  Frame out;
  Result<bool> next = decoder.Next(&out);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(*next);
  EXPECT_EQ(out.type, FrameType::kDelta);
  EXPECT_EQ(out.payload, "hello frames");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, DecoderHandlesBytewiseFeedAndMultipleFrames) {
  Frame a{FrameType::kPing, ""};
  Frame b{FrameType::kAck, std::string(100, 'x')};
  const std::string stream = net::EncodeFrame(a) + net::EncodeFrame(b);
  FrameDecoder decoder;
  std::vector<Frame> out;
  for (char c : stream) {
    decoder.Feed(std::string(1, c));
    Frame frame;
    Result<bool> next = decoder.Next(&frame);
    ASSERT_TRUE(next.ok());
    if (*next) out.push_back(frame);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, FrameType::kPing);
  EXPECT_EQ(out[1].payload, b.payload);
}

TEST(FrameTest, CorruptionIsDetectedAndSticky) {
  std::string bytes = net::EncodeFrame({FrameType::kDelta, "payload"});
  bytes[11] ^= 0x01;  // flip a payload bit; checksum now stale
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame out;
  Result<bool> next = decoder.Next(&out);
  EXPECT_FALSE(next.ok());
  // The decoder stays in the error state even for valid follow-ups.
  decoder.Feed(net::EncodeFrame({FrameType::kPing, ""}));
  EXPECT_FALSE(decoder.Next(&out).ok());
}

TEST(FrameTest, RejectsBadMagicAndOversizedPayload) {
  {
    std::string bytes = net::EncodeFrame({FrameType::kPing, ""});
    bytes[0] = 'X';
    FrameDecoder decoder;
    decoder.Feed(bytes);
    Frame out;
    EXPECT_FALSE(decoder.Next(&out).ok());
  }
  {
    std::string bytes = net::EncodeFrame({FrameType::kPing, ""});
    const uint32_t huge = net::kMaxFramePayload + 1;
    std::memcpy(bytes.data() + 5, &huge, sizeof(huge));
    FrameDecoder decoder;
    decoder.Feed(bytes);
    Frame out;
    EXPECT_FALSE(decoder.Next(&out).ok());
  }
}

// ---- Plan delta / snapshot codecs ------------------------------------

TEST(PlanWireTest, DeltaRoundTrip) {
  PlanDelta delta;
  delta.base_version = 41;
  delta.moves = {{0, 0, 1}, {7, 2, 0}, {3, 1, 2}};
  PlanDelta out;
  ASSERT_TRUE(DecodePlanDelta(EncodePlanDelta(delta), &out).ok());
  EXPECT_EQ(out.base_version, 41u);
  ASSERT_EQ(out.moves.size(), 3u);
  EXPECT_EQ(out.moves[1].vertex, 7u);
  EXPECT_EQ(out.moves[1].from, 2);
  EXPECT_EQ(out.moves[1].to, 0);
}

TEST(PlanWireTest, SnapshotRoundTrip) {
  PlanSnapshot snapshot;
  snapshot.version = 9;
  snapshot.num_dcs = 3;
  snapshot.masters = {0, 2, 1, 1};
  PlanSnapshot out;
  ASSERT_TRUE(DecodePlanSnapshot(EncodePlanSnapshot(snapshot), &out).ok());
  EXPECT_EQ(out.version, 9u);
  EXPECT_EQ(out.num_dcs, 3);
  EXPECT_EQ(out.masters, snapshot.masters);
}

TEST(PlanWireTest, EmptySnapshotRoundTrip) {
  PlanSnapshot snapshot;
  snapshot.version = 2;
  snapshot.num_dcs = 1;
  PlanSnapshot out;
  ASSERT_TRUE(DecodePlanSnapshot(EncodePlanSnapshot(snapshot), &out).ok());
  EXPECT_EQ(out.version, 2u);
  EXPECT_TRUE(out.masters.empty());
}

TEST(PlanWireTest, RejectsTruncationAndHugeCounts) {
  PlanDelta delta;
  delta.base_version = 1;
  delta.moves = {{0, 0, 1}};
  const std::string bytes = EncodePlanDelta(delta);
  PlanDelta out;
  EXPECT_FALSE(DecodePlanDelta(bytes.substr(0, bytes.size() - 3), &out).ok());
  EXPECT_FALSE(DecodePlanDelta(bytes + "extra", &out).ok());
  // A count field claiming 2^56 moves must be rejected by the
  // remaining-bytes bound before any allocation.
  std::string bomb;
  bomb.resize(16);
  const uint64_t base = 1, count = 1ull << 56;
  std::memcpy(bomb.data(), &base, 8);
  std::memcpy(bomb.data() + 8, &count, 8);
  EXPECT_FALSE(DecodePlanDelta(bomb, &out).ok());
}

// ---- PlanReplica resync ----------------------------------------------

TEST(PlanReplicaTest, InstallSnapshotHealsVersionGap) {
  PlanReplica owner({0, 1, 0, 1}, 2);
  PlanDelta delta;
  delta.base_version = 0;
  delta.moves = {{0, 0, 1}};
  ASSERT_TRUE(owner.Apply(delta).ok());
  EXPECT_EQ(owner.version(), 1u);

  // A restarted (empty) replica cannot apply the next delta: gap.
  PlanReplica restarted;
  PlanDelta next;
  next.base_version = 1;
  next.moves = {{2, 0, 1}};
  EXPECT_FALSE(restarted.Apply(next).ok());

  // Resync: install the owner's snapshot, then the delta chains.
  ASSERT_TRUE(restarted.InstallSnapshot(owner.Snapshot()).ok());
  EXPECT_EQ(restarted.version(), 1u);
  ASSERT_TRUE(restarted.Apply(next).ok());
  ASSERT_TRUE(owner.Apply(next).ok());
  EXPECT_EQ(restarted.Fingerprint(), owner.Fingerprint());
}

TEST(PlanReplicaTest, RejectsInconsistentSnapshot) {
  PlanReplica replica;
  PlanSnapshot bad;
  bad.version = 1;
  bad.num_dcs = 2;
  bad.masters = {0, 5};  // master outside [0, num_dcs)
  EXPECT_FALSE(replica.InstallSnapshot(bad).ok());
  EXPECT_EQ(replica.version(), 0u);  // untouched
}

// ---- FlakyPipe -------------------------------------------------------

TEST(FlakyPipeTest, DeliversBytesAndEofOnClose) {
  auto [a, b] = net::FlakyPipe::CreatePair();
  ASSERT_TRUE(a->Send("ping").ok());
  Result<std::string> got = b->Recv(1000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "ping");
  // Timeout with a healthy peer: empty string, OK status.
  got = b->Recv(10);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  a->Close();
  got = b->Recv(1000);
  EXPECT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("EOF"), std::string::npos);
}

// ---- ReplicaServer protocol ------------------------------------------

TEST(ReplicaServerTest, ProtocolStateMachine) {
  ReplicaServer server;

  net::HelloMsg hello;
  Result<Frame> reply = server.HandleFrame(
      Frame{FrameType::kHello, net::EncodeHello(hello)});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kHelloAck);

  // Snapshot install -> Ack with the new version + fingerprint.
  PlanSnapshot snapshot;
  snapshot.version = 5;
  snapshot.num_dcs = 2;
  snapshot.masters = {0, 1, 1, 0};
  reply = server.HandleFrame(
      Frame{FrameType::kSnapshot, EncodePlanSnapshot(snapshot)});
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kAck);
  net::AckMsg ack;
  ASSERT_TRUE(net::DecodeAck(reply->payload, &ack).ok());
  EXPECT_EQ(ack.version, 5u);
  EXPECT_EQ(ack.fingerprint, MastersFingerprint(snapshot.masters));

  // A chained delta Acks; a gapped delta Nacks with the server version.
  PlanDelta delta;
  delta.base_version = 5;
  delta.moves = {{0, 0, 1}};
  reply = server.HandleFrame(
      Frame{FrameType::kDelta, EncodePlanDelta(delta)});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kAck);
  EXPECT_EQ(server.version(), 6u);

  PlanDelta gapped;
  gapped.base_version = 99;
  reply = server.HandleFrame(
      Frame{FrameType::kDelta, EncodePlanDelta(gapped)});
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kNack);
  net::NackMsg nack;
  ASSERT_TRUE(net::DecodeNack(reply->payload, &nack).ok());
  EXPECT_EQ(nack.server_version, 6u);

  // Ping -> Pong; malformed payloads drop the connection (non-OK).
  reply = server.HandleFrame(Frame{FrameType::kPing, ""});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kPong);
  EXPECT_FALSE(server.HandleFrame(Frame{FrameType::kDelta, "junk"}).ok());
}

TEST(ReplicaServerTest, RejectsProtocolVersionOneHello) {
  // Version 1 peers exchanged a different masters digest; they must fail
  // the handshake instead of resyncing against an Ack that never matches.
  ReplicaServer server;
  net::HelloMsg hello;
  hello.protocol_version = 1;
  Result<Frame> reply = server.HandleFrame(
      Frame{FrameType::kHello, net::EncodeHello(hello)});
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find(
                "unsupported replica protocol version 1"),
            std::string::npos);
  EXPECT_EQ(net::HelloMsg().protocol_version, 2u);
}

// ---- ReplicaClient end-to-end ----------------------------------------

// Serves sequential TCP connections on a background thread until
// stopped; the server object can be swapped to simulate a worker
// restart.
class TcpServerHost {
 public:
  TcpServerHost() {
    auto listener = net::TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok());
    listener_ = std::move(*listener);
    server_ = std::make_shared<ReplicaServer>(MakeOptions());
    thread_ = std::thread([this] { Loop(); });
  }

  // TcpListener is single-threaded: close it only after the loop thread
  // (whose Accept times out every 50 ms) has seen stop_ and exited.
  ~TcpServerHost() {
    stop_.store(true);
    thread_.join();
    listener_->Close();
  }

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(listener_->port());
  }

  std::shared_ptr<ReplicaServer> server() {
    std::lock_guard<std::mutex> lock(mu_);
    return server_;
  }

  // Simulates a worker restart: the next connection lands on a fresh,
  // empty replica.
  void Restart() {
    std::lock_guard<std::mutex> lock(mu_);
    server_ = std::make_shared<ReplicaServer>(MakeOptions());
  }

 private:
  static net::ReplicaServerOptions MakeOptions() {
    net::ReplicaServerOptions options;
    options.idle_timeout_ms = 20;
    return options;
  }

  void Loop() {
    while (!stop_.load()) {
      Result<std::unique_ptr<net::Transport>> accepted =
          listener_->Accept(/*timeout_ms=*/50);
      if (!accepted.ok()) continue;
      std::shared_ptr<ReplicaServer> server;
      {
        std::lock_guard<std::mutex> lock(mu_);
        server = server_;
      }
      (void)server->ServeConnection(accepted->get(), &stop_);
    }
  }

  std::unique_ptr<net::TcpListener> listener_;
  std::mutex mu_;
  std::shared_ptr<ReplicaServer> server_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

ReplicaClientOptions FastClientOptions() {
  ReplicaClientOptions options;
  options.dial_timeout_ms = 1000;
  options.recv_timeout_ms = 1000;
  options.retry.max_attempts = 6;
  options.retry.initial_backoff_ms = 1;
  options.retry.deadline_seconds = 5;
  return options;
}

TEST(ReplicaClientTest, SyncsOverTcpLoopback) {
  TcpServerHost host;
  ReplicaClient client(
      ReplicaClient::TcpConnector(host.endpoint(), 1000),
      FastClientOptions());

  PlanSnapshot snapshot;
  snapshot.version = 0;
  snapshot.num_dcs = 2;
  snapshot.masters = {0, 1, 0, 1};
  ASSERT_TRUE(client.Begin(snapshot).ok());

  PlanDelta delta;
  delta.base_version = 0;
  delta.moves = {{1, 1, 0}};
  ASSERT_TRUE(client.PushDelta(delta).ok());
  ASSERT_TRUE(client.Flush().ok());
  EXPECT_FALSE(client.degraded());

  client.CloseConnection();
  EXPECT_EQ(host.server()->version(), client.mirror_version());
  EXPECT_EQ(host.server()->fingerprint(), client.mirror_fingerprint());
}

TEST(ReplicaClientTest, ResyncsAfterServerRestart) {
  TcpServerHost host;
  ReplicaClient client(
      ReplicaClient::TcpConnector(host.endpoint(), 1000),
      FastClientOptions());

  PlanSnapshot snapshot;
  snapshot.version = 0;
  snapshot.num_dcs = 2;
  snapshot.masters = {0, 1, 0, 1};
  ASSERT_TRUE(client.Begin(snapshot).ok());
  PlanDelta delta;
  delta.base_version = 0;
  delta.moves = {{0, 0, 1}};
  ASSERT_TRUE(client.PushDelta(delta).ok());
  ASSERT_TRUE(client.Flush().ok());

  // Worker dies and comes back empty; the client's old connection is
  // gone and the fresh server is versions behind.
  client.CloseConnection();
  host.Restart();

  PlanDelta next;
  next.base_version = 1;
  next.moves = {{2, 0, 1}};
  ASSERT_TRUE(client.PushDelta(next).ok());
  const Status flushed = client.Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();

  client.CloseConnection();
  EXPECT_GE(client.resyncs(), 1u);
  EXPECT_EQ(host.server()->version(), 2u);
  EXPECT_EQ(host.server()->fingerprint(), client.mirror_fingerprint());
}

TEST(ReplicaClientTest, DegradesWithoutServerAndFlushFailsClosed) {
  // No listener on this port (connector always fails).
  ReplicaClientOptions options = FastClientOptions();
  options.dial_timeout_ms = 50;
  options.retry.max_attempts = 2;
  options.retry.deadline_seconds = 0.5;
  ReplicaClient client(
      []() -> Result<std::unique_ptr<net::Transport>> {
        return Status::IoError("connection refused");
      },
      options);

  PlanSnapshot snapshot;
  snapshot.version = 0;
  snapshot.num_dcs = 2;
  snapshot.masters = {0, 1};
  // Begin and PushDelta degrade instead of failing the trainer.
  EXPECT_TRUE(client.Begin(snapshot).ok());
  EXPECT_TRUE(client.degraded());
  PlanDelta delta;
  delta.base_version = 0;
  delta.moves = {{0, 0, 1}};
  EXPECT_TRUE(client.PushDelta(delta).ok());
  EXPECT_EQ(client.mirror_version(), 1u);  // mirror still advances
  // Flush is the fail-closed barrier.
  EXPECT_FALSE(client.Flush().ok());
  EXPECT_TRUE(client.ever_degraded());
}

TEST(ReplicaClientTest, MirrorRejectsCorruptDeltaHard) {
  TcpServerHost host;
  ReplicaClient client(
      ReplicaClient::TcpConnector(host.endpoint(), 1000),
      FastClientOptions());
  PlanSnapshot snapshot;
  snapshot.version = 0;
  snapshot.num_dcs = 2;
  snapshot.masters = {0, 1};
  ASSERT_TRUE(client.Begin(snapshot).ok());
  // A delta whose `from` disagrees with the mirror is a real bug in the
  // caller, not a network condition: hard error, not degraded mode.
  PlanDelta bad;
  bad.base_version = 0;
  bad.moves = {{0, 1, 0}};  // vertex 0 masters at DC 0, not 1
  EXPECT_FALSE(client.PushDelta(bad).ok());
}

}  // namespace
}  // namespace rlcut
