// Serving-mode entry point: a PostcardServer on a real TCP port, wired
// for operations — SIGINT/SIGTERM trigger the graceful drain (finish the
// current slot, write the final snapshot, retire in-flight work, exit 0),
// and a previous snapshot on disk is restored on boot so a crash-restart
// cycle resumes the cost series exactly where it stopped.
//
//   ./build/examples/postcard_server [--port P] [--snapshot FILE]
//                                    [--slot-ms MS] [--snapshot-every N]
//                                    [--repl-listen P]
//
// Defaults: ephemeral port (printed on stdout), snapshot to
// ./postcard_server.psnp, slots advance every 2000 ms, periodic snapshot
// every 10 slots. Talk to it with examples/postcard_client.
//
// --repl-listen P makes the server a replication PRIMARY: a standby
// (examples/postcard_standby) connecting to port P is seeded with a
// snapshot and then follows the committed event log slot by slot, ready
// to take over if this process dies (DESIGN.md §14). Replication needs
// the deterministic runtime, which these options already are.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "replication/primary.h"
#include "server/server.h"
#include "server/snapshot.h"

using namespace postcard;

namespace {

// Signal handlers may only touch lock-free state: set the flag, let main
// poll it and run the actual drain outside signal context.
volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

bool file_exists(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  options.snapshot_path = "postcard_server.psnp";
  options.slot_every_ms = 2000;
  options.snapshot_every_slots = 10;
  int repl_port = -1;  // -1: replication off; 0: ephemeral
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--port") == 0) {
      options.port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      options.snapshot_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--slot-ms") == 0) {
      options.slot_every_ms = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0) {
      options.snapshot_every_slots = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--repl-listen") == 0) {
      repl_port = std::atoi(argv[i + 1]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  // Exactly-once resubmission across a failover needs dedup on the primary
  // too. The standby forces it on for its mirror and promoted server, but
  // a primary without it writes no admitted ids into its seeds, so a retry
  // of a file admitted before the seed would be admitted twice. Nothing
  // refuses such a primary; this line is what makes the pair exactly-once.
  if (repl_port >= 0) options.runtime.dedup_submissions = true;

  // Six datacenters, complete graph, 100 GB per slot per link, unit costs
  // 1..10 — the Fig. 4 shape the offline examples use.
  net::Topology topology = net::Topology::complete(
      6, 100.0,
      [](int i, int j) { return 1.0 + static_cast<double>((3 * i + 5 * j) % 10); });

  server::PostcardServer server{std::move(topology), options};
  server.add_postcard_backend();

  // The primary must be attached BEFORE the server starts so its event
  // tap sees every submission from the first byte on.
  std::unique_ptr<replication::ReplicationPrimary> primary;
  if (repl_port >= 0) {
    replication::PrimaryOptions popts;
    popts.port = repl_port;
    primary = std::make_unique<replication::ReplicationPrimary>(popts);
    primary->attach(server);
  }

  // Crash-restart: a snapshot on disk means a previous incarnation was
  // killed; resume its slot clock, ledgers and in-flight plans. The
  // deterministic-mode contract makes the resumed cost series bit-for-bit
  // identical to an uninterrupted run (tests/server/test_server.cc).
  if (!options.snapshot_path.empty() && file_exists(options.snapshot_path.c_str())) {
    server.restore_from(options.snapshot_path);
    std::printf("restored state from %s\n", options.snapshot_path.c_str());
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  server.start();
  if (primary) primary->start();
  std::printf("postcard_server listening on port %d (snapshot: %s)\n",
              server.port(),
              options.snapshot_path.empty() ? "disabled"
                                            : options.snapshot_path.c_str());
  if (primary) {
    std::printf("replicating to standbys on port %d\n", primary->port());
  }
  std::fflush(stdout);

  // Main thread parks until a signal or a protocol Shutdown drains the
  // server; both paths run the same drain inside the driver thread.
  while (!g_stop && !server.drained()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (g_stop) {
    std::printf("signal received, draining...\n");
    server.request_shutdown();
  }
  server.wait();
  if (primary) primary->stop();

  const runtime::RuntimeStats stats = server.stats();
  std::printf("drained after %d slots: %ld sessions, %ld submits "
              "(%ld admitted), %ld snapshots written\n",
              stats.slots_processed, stats.server.sessions_opened,
              stats.server.submits, stats.server.submit_admitted,
              stats.server.snapshots_written);
  return 0;
}
