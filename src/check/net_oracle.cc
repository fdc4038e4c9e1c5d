// The net lane (docs/distributed.md): full training sessions feeding a
// remote PlanReplica through the src/net transport, under randomized
// fault schedules over the net.* sites (connect failures, send
// failures, recv timeouts, frame corruption, disconnects).
//
// One case trains the same seeded problem twice — once without a sink
// for the reference masters, once against a ReplicaServer behind a
// FlakyPipe (real TCP loopback when seed % 4 == 0) — and asserts:
//
//   * the trainer's own trajectory is bit-identical to the reference
//     (the sink is write-only; no fault may leak into training), and
//   * the run ends in one of exactly two states: the remote replica
//     is bit-identical to the trainer's final masters with an OK
//     replica_status (faults masked by retry/reconnect/resync), or
//     replica_status is a clean non-OK Status (fail closed). A crash,
//     hang, or OK-status-with-divergent-replica is a failure.
//
// Cases with seed % 3 == 0 also run the kill/restart lane with no
// faults armed: mid-run, the server is killed and replaced by a fresh
// empty one (as a restarted worker process would be). The client must
// detect the version gap at the handshake and heal via snapshot resync
// to a bit-identical replica with an OK status — that lane accepts
// nothing weaker.
//
// Which faults fire, and so the outcome counts and the fire count,
// depends on thread timing; the case's pass/fail contract does not.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fixtures.h"
#include "check/lane.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "net/replica_service.h"
#include "net/transport.h"

namespace rlcut {
namespace check {
namespace {

net::ReplicaClientOptions ClientOptions(uint64_t seed) {
  net::ReplicaClientOptions copts;
  copts.dial_timeout_ms = 200;
  copts.recv_timeout_ms = 100;
  copts.retry.max_attempts = 5;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 8;
  copts.retry.deadline_seconds = 3;
  copts.retry.seed = seed;
  return copts;
}

// Hosts a ReplicaServer behind either FlakyPipe connections or a real
// TCP listener, serving sequential connections on one background
// thread — the in-process stand-in for the rlcut_replica worker.
// Transports and the listener are single-threaded, so only the loop
// thread touches them: other threads ask it to drop a connection
// (drop_) or to exit (stop_), and the listener is closed after the
// loop thread has been joined.
class ServerHost {
 public:
  explicit ServerHost(bool use_tcp) : use_tcp_(use_tcp) {
    net::ReplicaServerOptions sopts;
    sopts.idle_timeout_ms = 20;
    server_ = std::make_shared<net::ReplicaServer>(sopts);
    if (use_tcp_) {
      Result<std::unique_ptr<net::TcpListener>> listener =
          net::TcpListener::Listen(0);
      RLCUT_CHECK(listener.ok())
          << "net oracle: " << listener.status().ToString();
      listener_ = std::move(listener.value());
    }
    thread_ = std::thread([this] { Loop(); });
  }

  ~ServerHost() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
      drop_.store(true, std::memory_order_relaxed);
      cv_.notify_all();
    }
    thread_.join();
    if (listener_ != nullptr) listener_->Close();
  }

  net::ReplicaClient::Connector Connector() {
    if (use_tcp_) {
      const std::string endpoint =
          "127.0.0.1:" + std::to_string(listener_->port());
      return net::ReplicaClient::TcpConnector(endpoint, 200);
    }
    return [this]() -> Result<std::unique_ptr<net::Transport>> {
      // FlakyPipe dialing consults the same site DialTcp does, so
      // connect failures are injectable on both transports.
      if (fault::ShouldFire("net.connect_fail")) {
        return Status::IoError("injected connect failure dialing pipe");
      }
      auto ends = net::FlakyPipe::CreatePair();
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (stop_.load(std::memory_order_relaxed)) {
          return Status::IoError("pipe host stopped");
        }
        pending_.push_back(std::move(ends.second));
        cv_.notify_all();
      }
      return std::move(ends.first);
    };
  }

  // The kill/restart lane: drop the live connection and replace the
  // server with a fresh empty one, exactly as a worker process restart
  // would. The client must detect the version gap and snapshot-resync.
  // Returns once the loop thread has closed the connection (it polls
  // drop_ between frames, at least every idle timeout).
  void KillAndRestartServer() {
    std::unique_lock<std::mutex> lock(mu_);
    net::ReplicaServerOptions sopts;
    sopts.idle_timeout_ms = 20;
    server_ = std::make_shared<net::ReplicaServer>(sopts);
    if (serving_) {
      drop_.store(true, std::memory_order_relaxed);
      cv_.wait(lock, [this] { return !serving_; });
    }
  }

  std::shared_ptr<net::ReplicaServer> server() {
    std::unique_lock<std::mutex> lock(mu_);
    return server_;
  }

 private:
  void Loop() {
    for (;;) {
      std::unique_ptr<net::Transport> conn;
      if (use_tcp_) {
        if (stop_.load(std::memory_order_relaxed)) return;
        Result<std::unique_ptr<net::Transport>> accepted =
            listener_->Accept(20);
        if (!accepted.ok()) continue;  // Timeout: re-check stop_.
        conn = std::move(accepted.value());
      } else {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] {
          return stop_.load(std::memory_order_relaxed) ||
                 !pending_.empty();
        });
        if (stop_.load(std::memory_order_relaxed)) return;
        conn = std::move(pending_.front());
        pending_.pop_front();
      }
      std::shared_ptr<net::ReplicaServer> server;
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (stop_.load(std::memory_order_relaxed)) return;
        server = server_;
        serving_ = true;
        drop_.store(false, std::memory_order_relaxed);
      }
      // Serve to EOF or a drop request; errors (injected corruption,
      // disconnects) just end this connection — the client reconnects
      // and resyncs.
      server->ServeConnection(conn.get(), &drop_);
      conn.reset();
      {
        std::unique_lock<std::mutex> lock(mu_);
        serving_ = false;
        cv_.notify_all();
      }
    }
  }

  const bool use_tcp_;
  std::unique_ptr<net::TcpListener> listener_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<net::Transport>> pending_;
  std::shared_ptr<net::ReplicaServer> server_;
  bool serving_ = false;           // guarded by mu_
  std::atomic<bool> drop_{false};  // end the current connection
  std::atomic<bool> stop_{false};  // exit the loop
};

// A pass-through sink that triggers a server kill/restart right before
// a chosen push — the deterministic "replica died mid-run" event.
class KillAtPushSink : public ReplicaSink {
 public:
  KillAtPushSink(ReplicaSink* inner, ServerHost* host, uint64_t kill_at)
      : inner_(inner), host_(host), kill_at_(kill_at) {}

  Status Begin(const PlanSnapshot& snapshot) override {
    return inner_->Begin(snapshot);
  }
  Status PushDelta(const PlanDelta& delta) override {
    if (++pushes_ == kill_at_) host_->KillAndRestartServer();
    return inner_->PushDelta(delta);
  }
  Status Flush() override { return inner_->Flush(); }
  bool degraded() const override { return inner_->degraded(); }
  uint64_t version() const override { return inner_->version(); }

 private:
  ReplicaSink* inner_;
  ServerHost* host_;
  uint64_t kill_at_;
  uint64_t pushes_ = 0;
};

// 1-3 random rules over the net.* sites. recv_timeout and disconnect
// get bounded fire counts so a worst-case draw cannot park every
// round-trip on its timeout for the whole session.
const FaultCandidate kNetFaults[] = {
    {"net.connect_fail",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.1 + 0.4 * g->NextDouble();
       r->max_fires = 1 + static_cast<int64_t>(g->Below(6));
     }},
    {"net.send_fail",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.25 * g->NextDouble();
     }},
    {"net.recv_timeout",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.25 * g->NextDouble();
       r->max_fires = 1 + static_cast<int64_t>(g->Below(8));
     }},
    {"net.frame_corrupt",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.05 + 0.25 * g->NextDouble();
       r->amount = static_cast<int64_t>(g->Below(64));
     }},
    {"net.disconnect",
     [](fault::FaultRule* r, CounterRng* g) {
       r->probability = 0.02 + 0.13 * g->NextDouble();
       r->max_fires = 1 + static_cast<int64_t>(g->Below(4));
     }},
};

// One training run against a hosted server. Returns through the out
// params; never throws (Train's net path is Status-based throughout).
struct RunOutcome {
  TrainResult result;
  std::vector<DcId> trainer_masters;
  PlanSnapshot server_state;
  uint64_t client_version = 0;
  uint64_t client_fingerprint = 0;
};

RunOutcome RunAgainstHost(const Problem& problem, const RLCutOptions& topts,
                          ServerHost* host, uint64_t client_seed,
                          uint64_t kill_at_push) {
  RunOutcome outcome;
  auto state = problem.MakeState();
  AutomatonPool pool(problem.graph.num_vertices(),
                     problem.topology.num_dcs(), topts);
  net::ReplicaClient client(host->Connector(), ClientOptions(client_seed));
  RLCutTrainer trainer(topts);
  KillAtPushSink killer(&client, host, kill_at_push);
  trainer.SetReplicaSink(kill_at_push > 0
                             ? static_cast<ReplicaSink*>(&killer)
                             : static_cast<ReplicaSink*>(&client));
  outcome.result =
      trainer.Train(state.get(), problem.AllVertices(), &pool);
  outcome.trainer_masters = state->masters();
  outcome.client_version = client.mirror_version();
  outcome.client_fingerprint = client.mirror_fingerprint();
  // Drop the client connection before sampling the server so the
  // serving thread is not mid-apply (ServeConnection locks per frame;
  // after Flush returned OK the server already acked the final state).
  client.CloseConnection();
  outcome.server_state = host->server()->snapshot();
  return outcome;
}

bool ServerMatches(const RunOutcome& outcome) {
  return outcome.server_state.masters == outcome.trainer_masters &&
         outcome.server_state.version == outcome.client_version;
}

}  // namespace

void RunNetCase(uint64_t seed, LaneReport* report) {
  for (const char* count :
       {"bit-identical", "failed closed", "degraded-then-healed",
        "kill resyncs", "over tcp", "injected fires"}) {
    report->Add(count, 0);
  }
  fault::Disarm();
  CounterRng rng{SplitMix64(seed) ^ 0x2e7c1};
  const Problem problem = TrainingProblem(seed);
  const RLCutOptions topts = TrainingOptions(seed);
  const bool use_tcp = seed % 4 == 0;
  if (use_tcp) report->Add("over tcp", 1);

  auto fail = [&](const std::string& message) {
    fault::Disarm();
    report->failures.push_back((use_tcp ? "tcp: " : "pipe: ") + message);
  };

  // Reference: the same seeded run with no sink attached.
  std::vector<DcId> reference;
  {
    auto state = problem.MakeState();
    AutomatonPool pool(problem.graph.num_vertices(),
                       problem.topology.num_dcs(), topts);
    RLCutTrainer(topts).Train(state.get(), problem.AllVertices(), &pool);
    reference = state->masters();
  }

  // Faulted lane.
  {
    ServerHost host(use_tcp);
    const fault::FaultSchedule schedule =
        RandomSchedule(seed, kNetFaults, &rng);
    fault::Arm(schedule);
    RunOutcome outcome;
    try {
      outcome = RunAgainstHost(problem, topts, &host, seed, /*kill_at_push=*/0);
    } catch (const std::exception& e) {
      fail(std::string("training escaped with an exception under [") +
           schedule.ToSpec() + "]: " + e.what());
      return;
    }
    report->Add("injected fires", fault::TotalFires());
    fault::Disarm();
    if (outcome.trainer_masters != reference) {
      fail("sink faults perturbed the training trajectory under [" +
           schedule.ToSpec() + "]");
      return;
    }
    if (outcome.result.replica_status.ok()) {
      if (!ServerMatches(outcome)) {
        fail("replica_status is OK but the remote replica diverged "
             "(silent divergence) under [" +
             schedule.ToSpec() + "]");
        return;
      }
      report->Add("bit-identical", 1);
      if (outcome.result.replica_degraded) {
        report->Add("degraded-then-healed", 1);
      }
    } else {
      if (outcome.result.replica_status.message().empty()) {
        fail("fail-closed status carries no message under [" +
             schedule.ToSpec() + "]");
        return;
      }
      report->Add("failed closed", 1);
    }
  }

  // Kill/restart lane: no faults armed; a mid-run server restart
  // must be healed by snapshot resync, bit-identically.
  if (seed % 3 == 0) {
    ServerHost host(use_tcp);
    const uint64_t kill_at = 2 + rng.Below(4);
    const RunOutcome outcome = RunAgainstHost(
        problem, topts, &host, seed, /*kill_at_push=*/kill_at);
    if (outcome.trainer_masters != reference) {
      fail("kill lane perturbed the training trajectory");
      return;
    }
    if (!outcome.result.replica_status.ok()) {
      fail("kill lane failed to resync after server restart: " +
           outcome.result.replica_status.ToString());
      return;
    }
    if (!ServerMatches(outcome)) {
      fail("kill lane ended with a divergent replica after resync");
      return;
    }
    report->Add("kill resyncs", 1);
  }
  fault::Disarm();
}


}  // namespace check
}  // namespace rlcut
