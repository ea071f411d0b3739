// Deterministic-mode failover: a primary killed abruptly mid-run hands
// over to its standby, and the survivor's remaining cost series is
// bit-for-bit identical to an unfailed run, with and without a slot pivot
// budget — the standby given only the primary's address, its seed carrying
// the rest — plus exactly-once client resubmission across the failover, a
// standby that connects after the last commit being seeded between ticks,
// and the standby's refusal to promote when it was never seeded.
#include <gtest/gtest.h>

#include <memory>
#include <string>
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

/// Runs repl_workload(61) on one uninterrupted server and on a replicated
/// pair whose primary dies after slot 3, every runtime under the same
/// `pivot_budget` (0: no watchdog), and checks the survivor finishes with
/// the unfailed run's stats.
void expect_survivor_reproduces_unfailed_run(long pivot_budget) {
  const sim::UniformWorkload w(repl_workload(61));
  const int kill_at = 4;
  runtime::RuntimeOptions runtime_options = replicated_runtime_options();
  runtime_options.slot_pivot_budget = pivot_budget;

  // Reference: the same workload on a single uninterrupted server.
  runtime::RuntimeStats ref_stats;
  {
    ServerOptions options;
    options.runtime = runtime_options;
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
  options.runtime = runtime_options;
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

  // Only the primary's address: the seed carries the topology, the budget
  // and the backend sequence.
  ReplicationStandby standby(test_standby_options(primary.port()));
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
  // The standby acks each commit it applied; the primary's io thread reads
  // the ack on its own schedule, so wait for it.
  EXPECT_TRUE(poll_until([&] { return primary.stats().acks_received >= 1; }))
      << "primary never received an ack";

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
  // The watchdog cut the same slots the same way on both sides.
  EXPECT_EQ(got.degraded_slots, ref.degraded_slots);
  EXPECT_EQ(got.rung_full, ref.rung_full);
  EXPECT_EQ(got.rung_truncated, ref.rung_truncated);
  EXPECT_EQ(got.rung_greedy, ref.rung_greedy);
  EXPECT_EQ(standby.stats().fingerprint_mismatches, 0);
  if (pivot_budget > 0) {
    EXPECT_GT(ref.degraded_slots, 0);
    EXPECT_GT(ref.rung_truncated, 0);
  }

  standby.stop();
}

TEST(ReplicationFailover, SurvivorReproducesTheUnfailedRunBitForBit) {
  for (const long pivot_budget : {0L, 10L}) {
    SCOPED_TRACE("slot_pivot_budget " + std::to_string(pivot_budget));
    expect_survivor_reproduces_unfailed_run(pivot_budget);
  }
}

TEST(ReplicationFailover, StandbyStartedAfterTheLastCommitIsSeededBetweenTicks) {
  // A manually driven primary commits every slot before its standby
  // exists. The standby's Hello must be answered by a seed shipped between
  // ticks, with no further AdvanceSlot; when the primary then dies, the
  // standby promotes holding the primary's cost series.
  const sim::UniformWorkload w(repl_workload(63));
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
  {
    PostcardClient client("127.0.0.1", primary_server->port());
    for (int slot = 0; slot < w.num_slots(); ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
  }
  const runtime::RuntimeStats driven = primary_server->stats();
  ASSERT_EQ(driven.slots_processed, w.num_slots());

  ReplicationStandby standby(test_standby_options(primary.port()));
  standby.start();
  ASSERT_TRUE(poll_until([&] { return standby.stats().snapshots_applied >= 1; }))
      << "standby was never seeded";
  EXPECT_EQ(primary_server->stats().server.slots_advanced, w.num_slots());
  EXPECT_EQ(primary.stats().commits_shipped, 0);

  primary.kill_abruptly();
  primary_server->request_shutdown();
  primary_server->wait();
  primary.stop();
  primary_server.reset();

  ASSERT_TRUE(standby.wait_promoted(kWaitMs)) << "standby did not promote";
  ASSERT_FALSE(standby.failed());
  PostcardClient client("127.0.0.1", standby.serve_port());
  const runtime::RuntimeStats got = client.query_stats();
  EXPECT_EQ(got.slots_processed, driven.slots_processed);
  ASSERT_EQ(got.backends.size(), driven.backends.size());
  const std::vector<double>& want = driven.backends[0].cost_series;
  const std::vector<double>& have = got.backends[0].cost_series;
  ASSERT_EQ(have.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(have[i], want[i]) << "slot " << i;
  }
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
  ReplicationStandby standby(test_standby_options(dead_port));
  standby.start();
  ASSERT_TRUE(standby.wait_failed(kWaitMs));
  EXPECT_FALSE(standby.promoted());
  EXPECT_EQ(standby.server(), nullptr);
  standby.stop();
}

}  // namespace
}  // namespace postcard::replication
