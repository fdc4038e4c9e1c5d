// rlcut_replica: plan-replica worker daemon (docs/distributed.md).
//
// The far side of the process-split replica link: owns a ReplicaServer
// (a versioned PlanReplica behind the framed-message protocol) and
// serves sequential connections from a ReplicaClient: a trainer's
// (rlcut_tool --replica_endpoint) or a serving session's (rlcut_serve
// --replica_endpoint).
//
//   rlcut_replica --port=7070
//   rlcut_replica --port=0        # ephemeral; the chosen port is printed
//
// A client that reconnects after this process restarts finds an empty
// replica, gets Nacked on its first delta, and heals by shipping a full
// snapshot — kill/restart mid-run is a supported, tested path. SIGINT
// and SIGTERM shut down cleanly: the current connection drains and the
// final replica version + fingerprint are printed (the operator compares
// them against the trainer's summary line).

#include <csignal>
#include <cstdio>
#include <atomic>
#include <memory>
#include <string>

#include "common/flags.h"
#include "net/replica_service.h"
#include "net/transport.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  rlcut::FlagParser flags;
  flags.DefineInt("port", 7070,
                  "TCP port to listen on (127.0.0.1); 0 picks an "
                  "ephemeral port and prints it");
  flags.DefineInt("idle_timeout_ms", 1000,
                  "per-recv idle wait before re-checking for shutdown");
  flags.DefineInt("max_connections", 0,
                  "exit after serving N connections (0 = run until "
                  "SIGINT/SIGTERM; used by tests)");
  flags.DefineBool("quiet", false, "suppress per-connection lines");
  if (rlcut::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  const bool quiet = flags.GetBool("quiet");

  rlcut::Result<std::unique_ptr<rlcut::net::TcpListener>> listener =
      rlcut::net::TcpListener::Listen(
          static_cast<int>(flags.GetInt("port")));
  if (!listener.ok()) {
    std::fprintf(stderr, "listen: %s\n",
                 listener.status().ToString().c_str());
    return 1;
  }
  std::printf("rlcut_replica listening on 127.0.0.1:%d\n",
              (*listener)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  rlcut::net::ReplicaServerOptions server_options;
  server_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle_timeout_ms"));
  rlcut::net::ReplicaServer server(server_options);

  const int64_t max_connections = flags.GetInt("max_connections");
  uint64_t served = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    // Short accept timeout so shutdown signals are honored promptly.
    rlcut::Result<std::unique_ptr<rlcut::net::Transport>> accepted =
        (*listener)->Accept(/*timeout_ms=*/200);
    if (!accepted.ok()) {
      if (accepted.status().message().find("timed out") !=
          std::string::npos) {
        continue;
      }
      std::fprintf(stderr, "accept: %s\n",
                   accepted.status().ToString().c_str());
      break;
    }
    const rlcut::Status conn = server.ServeConnection(accepted->get(),
                                                      &g_stop);
    ++served;
    if (!quiet) {
      std::printf("connection %llu: %s (replica now v%llu)\n",
                  static_cast<unsigned long long>(served),
                  conn.ok() ? "clean EOF" : conn.ToString().c_str(),
                  static_cast<unsigned long long>(server.version()));
      std::fflush(stdout);
    }
    if (max_connections > 0 &&
        served >= static_cast<uint64_t>(max_connections)) {
      break;
    }
  }
  (*listener)->Close();

  const rlcut::net::ReplicaServerStats stats = server.stats();
  std::printf(
      "replica final: v%llu fingerprint %016llx (%llu connections, "
      "%llu frames, %llu deltas, %llu snapshots, %llu nacks, "
      "%llu pings)\n",
      static_cast<unsigned long long>(server.version()),
      static_cast<unsigned long long>(server.fingerprint()),
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.frames),
      static_cast<unsigned long long>(stats.deltas_applied),
      static_cast<unsigned long long>(stats.snapshots_installed),
      static_cast<unsigned long long>(stats.nacks),
      static_cast<unsigned long long>(stats.pings));
  return 0;
}
