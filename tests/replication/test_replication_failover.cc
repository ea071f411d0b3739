// Deterministic-mode failover: a primary killed abruptly mid-run hands
// over to its standby, and the survivor's remaining cost series is
// bit-for-bit identical to an unfailed run — plus exactly-once client
// resubmission across the failover and the standby's refusal to promote
// when it was never seeded.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "replication/failover_client.h"
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

TEST(ReplicationFailover, SurvivorReproducesTheUnfailedRunBitForBit) {
  const sim::UniformWorkload w(repl_workload(61));
  const int kill_at = 4;

  // Reference: the same workload on a single uninterrupted server.
  runtime::RuntimeStats ref_stats;
  {
    ServerOptions options;
    options.runtime = replicated_runtime_options();
    PostcardServer server{net::Topology(w.topology()), options};
    server.add_postcard_backend();
    server.start();
    PostcardClient client("127.0.0.1", server.port());
    for (int slot = 0; slot < w.num_slots(); ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
    client.shutdown();
    server.wait();
    ref_stats = server.stats();
  }

  // Replicated pair.
  ServerOptions options;
  options.runtime = replicated_runtime_options();
  auto primary_server = std::make_unique<PostcardServer>(
      net::Topology(w.topology()), options);
  primary_server->add_postcard_backend();
  PrimaryOptions popts;
  popts.heartbeat_every_ms = 50;
  ReplicationPrimary primary(popts);
  primary.attach(*primary_server);
  primary_server->start();
  primary.start();
  const int primary_port = primary_server->port();

  ReplicationStandby standby(net::Topology(w.topology()),
                             {BackendSpec::make_postcard()},
                             test_standby_options(primary.port()));
  standby.start();
  ASSERT_TRUE(wait_standby_connected(primary));

  // Drive the first half against the primary; the standby follows.
  {
    PostcardClient client("127.0.0.1", primary_port);
    for (int slot = 0; slot < kill_at; ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
  }
  ASSERT_TRUE(standby.wait_for_commit(kill_at - 1, kWaitMs))
      << "standby never caught up to slot " << kill_at - 1;
  {
    const StandbyStats s = standby.stats();
    EXPECT_GE(s.snapshots_applied, 1);
    EXPECT_EQ(s.fingerprint_mismatches, 0);
  }
  EXPECT_GE(primary.stats().acks_received, 1);

  // SIGKILL-equivalent: the replication stream dies with no goodbye, then
  // the primary process "vanishes" (its port stops answering).
  primary.kill_abruptly();
  primary_server->request_shutdown();
  primary_server->wait();
  primary.stop();
  primary_server.reset();

  ASSERT_TRUE(standby.wait_promoted(kWaitMs)) << "standby did not promote";
  ASSERT_FALSE(standby.failed());
  ASSERT_GT(standby.serve_port(), 0);

  // The failover client starts at the DEAD primary endpoint and must
  // rotate to the survivor on its own.
  FailoverClientOptions fopts;
  fopts.endpoints = {{"127.0.0.1", primary_port},
                     {"127.0.0.1", standby.serve_port()}};
  fopts.io_timeout_ms = 2000;
  FailoverClient client(fopts);

  // Exactly-once across the failover: a submit whose reply the caller
  // never saw is retried verbatim and deduplicated, not double-counted.
  const net::FileRequest retried = w.batch(0).at(0);
  const server::SubmitVerdict verdict = client.submit_file(retried);
  EXPECT_TRUE(verdict.admitted);
  EXPECT_TRUE(verdict.duplicate);
  EXPECT_GE(client.failovers(), 1) << "client never rotated endpoints";

  // Finish the workload against the survivor.
  for (int slot = kill_at; slot < w.num_slots(); ++slot) {
    client.submit_batch(w.batch(slot));
    client.advance_to(slot + 1);
  }
  const runtime::RuntimeStats got_stats = client.query_stats();

  ASSERT_EQ(got_stats.backends.size(), ref_stats.backends.size());
  const runtime::BackendStats& ref = ref_stats.backends[0];
  const runtime::BackendStats& got = got_stats.backends[0];
  ASSERT_EQ(got.cost_series.size(), ref.cost_series.size());
  for (std::size_t i = 0; i < ref.cost_series.size(); ++i) {
    EXPECT_EQ(got.cost_series[i], ref.cost_series[i]) << "slot " << i;
  }
  // Fail-fast audits are re-armed on the survivor and found nothing.
  EXPECT_TRUE(got.audit_armed);
  EXPECT_EQ(got.audit_violations, 0);
  EXPECT_GT(got.audit_checks, 0);
  // Admission identity survives the failover: every admitted file was
  // decided exactly once (the retried duplicate added a submit, never an
  // admit).
  EXPECT_EQ(got_stats.admitted, ref_stats.admitted);
  EXPECT_EQ(got.accepted_files, ref.accepted_files);
  EXPECT_EQ(got.rejected_files, ref.rejected_files);
  EXPECT_EQ(got.failed_files, ref.failed_files);
  EXPECT_EQ(got.accepted_files + got.rejected_files,
            ref.accepted_files + ref.rejected_files);

  standby.stop();
}

TEST(ReplicationFailover, NeverSeededStandbyFailsInsteadOfPromoting) {
  // Point the standby at a port nobody listens on: it must exhaust its
  // reconnect attempts and fail LOUDLY — serving an empty runtime as if it
  // held the primary's state would be silent data loss.
  int dead_port;
  {
    ServerOptions opts;
    sim::UniformWorkload w(repl_workload(62));
    PostcardServer probe{net::Topology(w.topology()), opts};
    probe.add_postcard_backend();
    probe.start();
    dead_port = probe.port();
    probe.request_shutdown();
    probe.wait();
  }
  const sim::UniformWorkload w(repl_workload(62));
  ReplicationStandby standby(net::Topology(w.topology()),
                             {BackendSpec::make_postcard()},
                             test_standby_options(dead_port));
  standby.start();
  ASSERT_TRUE(standby.wait_failed(kWaitMs));
  EXPECT_FALSE(standby.promoted());
  EXPECT_EQ(standby.server(), nullptr);
  standby.stop();
}

TEST(ReplicationFailover, NonDeterministicMirrorOptionsAreRefused) {
  // A wall-clock slot deadline cuts the primary's and the mirror's solves
  // at different pivots, so neither end may accept it.
  const sim::UniformWorkload w(repl_workload(63));
  StandbyOptions options = test_standby_options(1);
  options.runtime.slot_deadline_seconds = 0.5;
  EXPECT_THROW(ReplicationStandby(net::Topology(w.topology()),
                                  {BackendSpec::make_postcard()},
                                  std::move(options)),
               std::invalid_argument);

  ServerOptions server_options;
  server_options.runtime = replicated_runtime_options();
  server_options.runtime.slot_deadline_seconds = 0.5;
  PostcardServer server{net::Topology(w.topology()), server_options};
  server.add_postcard_backend();
  ReplicationPrimary primary(PrimaryOptions{});
  EXPECT_THROW(primary.attach(server), std::invalid_argument);
}

}  // namespace
}  // namespace postcard::replication
