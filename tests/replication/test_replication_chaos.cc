// Replication chaos: injected divergence must be caught within one slot
// commit and healed by a reseed; a stalled (non-draining) standby must be
// dropped without wedging the primary's slot clock; reconnects and
// standby turnover must reseed cleanly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <memory>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "replication/primary.h"
#include "replication/standby.h"
#include "repl_test_util.h"
#include "server/client.h"
#include "server/server.h"

namespace postcard::replication {
namespace {

using server::PostcardClient;
using server::PostcardServer;
using server::ServerOptions;

struct ReplicatedPair {
  std::unique_ptr<PostcardServer> server;
  std::unique_ptr<ReplicationPrimary> primary;

  explicit ReplicatedPair(const net::Topology& topology,
                          PrimaryOptions popts = {}) {
    ServerOptions options;
    options.runtime = replicated_runtime_options();
    server = std::make_unique<PostcardServer>(net::Topology(topology), options);
    server->add_postcard_backend();
    popts.heartbeat_every_ms = 50;
    primary = std::make_unique<ReplicationPrimary>(popts);
    primary->attach(*server);
    server->start();
    primary->start();
  }
  ~ReplicatedPair() {
    if (primary) primary->stop();
    if (server) {
      server->request_shutdown();
      server->wait();
    }
  }
};

TEST(ReplicationChaos, InjectedDivergenceIsCaughtWithinOneCommitAndReseeded) {
  const sim::UniformWorkload w(repl_workload(71));
  ReplicatedPair pair(w.topology());
  ReplicationStandby standby(net::Topology(w.topology()),
                             {BackendSpec::make_postcard()},
                             test_standby_options(pair.primary->port()));
  standby.start();
  ASSERT_TRUE(wait_standby_connected(*pair.primary));

  PostcardClient client("127.0.0.1", pair.server->port());
  client.submit_batch(w.batch(0));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(0, kWaitMs));
  const long clean_seeds = standby.stats().snapshots_applied;

  // Corrupt the next replicated arrival: the standby's replay of slot 1
  // MUST digest differently from the primary's commit fingerprint.
  standby.corrupt_next_event();
  client.submit_batch(w.batch(1));
  client.advance(1);

  // Detection happens at that very commit: the standby reports the
  // mismatch and asks for a reseed before any further slot passes.
  ASSERT_TRUE(poll_until([&] {
    const StandbyStats s = standby.stats();
    return s.fingerprint_mismatches >= 1 && s.reseeds_sent >= 1;
  })) << "divergence never detected";
  ASSERT_TRUE(poll_until([&] {
    return pair.primary->stats().reseeds_requested >= 1;
  })) << "reseed request never reached the primary";

  // Recovery: the NEXT slot commit ships a fresh snapshot, and the
  // reseeded mirror tracks the primary's fingerprints again.
  client.submit_batch(w.batch(2));
  client.advance(1);
  ASSERT_TRUE(poll_until([&] {
    return standby.stats().snapshots_applied > clean_seeds;
  })) << "standby was never reseeded";
  client.submit_batch(w.batch(3));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(3, kWaitMs));
  const StandbyStats healed = standby.stats();
  EXPECT_EQ(healed.fingerprint_mismatches, 1);
  standby.stop();
}

TEST(ReplicationChaos, StalledStandbyIsDroppedSlowNotWedgingTheSlotClock) {
  const sim::UniformWorkload w(repl_workload(72));
  PrimaryOptions popts;
  popts.send_timeout_ms = 300;
  popts.sndbuf_bytes = 2048;  // tiny socket buffer: a non-reader fills it fast
  ReplicatedPair pair(w.topology(), popts);

  PostcardClient client("127.0.0.1", pair.server->port());
  // Pile up pending far-future arrivals so the seed snapshot outgrows the
  // combined socket buffering by a wide margin.
  std::vector<net::FileRequest> future;
  for (int i = 0; i < 4000; ++i) {
    net::FileRequest f;
    f.id = 10000 + i;
    f.source = i % 5;
    f.destination = (i + 1) % 5;
    f.size = 10.0 + (i % 50);
    f.max_transfer_slots = 3;
    f.release_slot = 40 + (i % 5);
    future.push_back(f);
  }
  client.submit_batch(future);

  // A "standby" that connects and then never reads a byte. Its receive
  // buffer is shrunk BEFORE connect (so the window is negotiated small):
  // unread data otherwise parks in the peer's default ~128 KB rcvbuf and
  // the sender never blocks at all.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(pair.primary->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(poll_until([&] { return pair.primary->standby_connected(); }));

  // The next commit tries to seed it; the bounded send deadline must trip
  // and DROP the stall instead of blocking the driver forever. advance()
  // returning at all is the no-wedge assertion.
  const auto t0 = std::chrono::steady_clock::now();
  client.advance(1);
  ASSERT_TRUE(poll_until([&] {
    return pair.primary->stats().standbys_dropped_slow >= 1;
  })) << "stalled standby was never dropped";
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
  ::close(fd);

  // A real standby connecting afterwards gets seeded normally. Seeds
  // ship at slot commits only, so the connection must be up before the
  // final advance — otherwise the standby would wait for a commit that
  // never comes.
  ReplicationStandby standby(net::Topology(w.topology()),
                             {BackendSpec::make_postcard()},
                             test_standby_options(pair.primary->port()));
  standby.start();
  ASSERT_TRUE(poll_until([&] { return pair.primary->standby_connected(); }));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(1, kWaitMs));
  standby.stop();
}

TEST(ReplicationChaos, StandbyTurnoverReseedsEachNewFollower) {
  const sim::UniformWorkload w(repl_workload(73));
  ReplicatedPair pair(w.topology());
  PostcardClient client("127.0.0.1", pair.server->port());

  client.submit_batch(w.batch(0));
  client.advance(1);

  {
    ReplicationStandby first(net::Topology(w.topology()),
                             {BackendSpec::make_postcard()},
                             test_standby_options(pair.primary->port()));
    first.start();
    ASSERT_TRUE(wait_standby_connected(*pair.primary));
    client.submit_batch(w.batch(1));
    client.advance(1);
    ASSERT_TRUE(first.wait_for_commit(1, kWaitMs));
    first.stop();  // clean departure, not a failover
  }

  ReplicationStandby second(net::Topology(w.topology()),
                            {BackendSpec::make_postcard()},
                            test_standby_options(pair.primary->port()));
  second.start();
  // Wait for the primary to accept the second follower itself: until its
  // I/O loop notices the first one left, standby_connected() still reports
  // the departed connection, and a commit shipped into it never reaches
  // the second follower.
  ASSERT_TRUE(poll_until(
      [&] { return pair.primary->stats().standbys_accepted >= 2; }));
  client.submit_batch(w.batch(2));
  client.advance(1);
  ASSERT_TRUE(second.wait_for_commit(2, kWaitMs));
  // Each follower got its own seed; the second one's arrived with the
  // first's state already folded in (snapshot, not replay-from-genesis).
  EXPECT_GE(pair.primary->stats().snapshots_shipped, 2);
  EXPECT_EQ(second.stats().fingerprint_mismatches, 0);
  second.stop();
}

TEST(ReplicationChaos, PartitionedStandbyReconnectsAndResumes) {
  const sim::UniformWorkload w(repl_workload(74));
  ReplicatedPair pair(w.topology());
  StandbyOptions sopts = test_standby_options(pair.primary->port());
  sopts.reconnect_attempts = 100;  // partition heals before attempts run out
  ReplicationStandby standby(net::Topology(w.topology()),
                             {BackendSpec::make_postcard()}, sopts);
  standby.start();
  ASSERT_TRUE(wait_standby_connected(*pair.primary));

  PostcardClient client("127.0.0.1", pair.server->port());
  client.submit_batch(w.batch(0));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(0, kWaitMs));

  // Sever the link WITHOUT stopping either party: the primary keeps one
  // standby, so a second connection evicts the followed one — which sees
  // exactly what a network partition looks like (a hard EOF mid-stream)
  // and must reconnect and get reseeded on its own.
  ASSERT_TRUE(poll_until([&] { return pair.primary->standby_connected(); }));
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(pair.primary->port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // The primary keeps ONE standby: the new connection evicts the old —
    // the followed standby experiences exactly a partition (hard EOF).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  }

  // The real standby reconnects on its own, is reseeded, and resumes
  // acking commits.
  ASSERT_TRUE(poll_until([&] { return standby.stats().reconnects >= 1; }))
      << "standby never noticed the partition";
  client.submit_batch(w.batch(1));
  client.advance(1);
  client.submit_batch(w.batch(2));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(2, kWaitMs));
  EXPECT_GE(standby.stats().snapshots_applied, 2);
  standby.stop();
}

}  // namespace
}  // namespace postcard::replication
