// Warm standby for examples/postcard_server: follows a primary started
// with --repl-listen, mirrors every committed slot by deterministic
// replay, and — when the primary goes silent — promotes itself to a
// serving PostcardServer holding the exact state the primary committed
// (DESIGN.md §14).
//
//   ./build/examples/postcard_standby --primary-repl-port P
//                                     [--primary-host H] [--serve-port P]
//                                     [--snapshot FILE]
//
// Run a pair in two terminals:
//
//   ./build/examples/postcard_server  --repl-listen 7100
//   ./build/examples/postcard_standby --primary-repl-port 7100
//
// then kill -9 the server: within a heartbeat timeout the standby prints
// the port it now serves on, and postcard_client keeps working against
// it (resubmitted in-flight files are deduplicated, not double-counted).
// The standby needs only the primary's address: the snapshot the primary
// seeds it with carries the topology, the runtime options and the backend
// sequence, so its mirror always runs the primary's configuration.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "replication/standby.h"

using namespace postcard;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  replication::StandbyOptions options;
  options.primary_port = 0;
  options.promoted_snapshot_path = "postcard_standby.psnp";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--primary-repl-port") == 0) {
      options.primary_port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--primary-host") == 0) {
      options.primary_host = argv[i + 1];
    } else if (std::strcmp(argv[i], "--serve-port") == 0) {
      options.serve_port = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--snapshot") == 0) {
      options.promoted_snapshot_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (options.primary_port <= 0) {
    std::fprintf(stderr, "usage: postcard_standby --primary-repl-port P "
                         "[--primary-host H] [--serve-port P] "
                         "[--snapshot FILE]\n");
    return 2;
  }

  replication::ReplicationStandby standby(options);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  standby.start();
  std::printf("postcard_standby following %s:%d\n",
              options.primary_host.c_str(), options.primary_port);
  std::fflush(stdout);

  bool announced = false;
  while (!g_stop && !standby.failed()) {
    if (standby.promoted() && !announced) {
      std::printf("primary lost — promoted, serving on port %d\n",
                  standby.serve_port());
      std::fflush(stdout);
      announced = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const replication::StandbyStats stats = standby.stats();
  standby.stop();
  if (standby.failed() && !announced) {
    std::fprintf(stderr, "standby failed before it was ever seeded — "
                         "NOT serving (an empty mirror would be data "
                         "loss)\n");
    return 1;
  }
  std::printf("standby exiting: %ld snapshots, %ld events, %ld commits "
              "(last slot %d), %ld reseeds\n",
              stats.snapshots_applied, stats.events_applied,
              stats.commits_applied, stats.last_commit_slot,
              stats.reseeds_sent);
  return 0;
}
