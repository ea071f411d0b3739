// Replication codec round-trips, truncation safety, and the divergence
// fingerprint's contract: deterministic over committed state, sensitive to
// one ULP of cost-series drift, blind to wall-clock noise.
#include "replication/repl_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "audit/fingerprint.h"
#include "runtime/runtime.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "sim/workload.h"

namespace postcard::replication {
namespace {

TEST(ReplCodec, HelloRoundTrip) {
  // Every Hello is seeded, so the message carries nothing, and a Hello
  // with bytes in it is a protocol violation.
  EXPECT_TRUE(ReplHello{}.encode().empty());
  EXPECT_NO_THROW(ReplHello::decode({}));
  EXPECT_THROW(ReplHello::decode({0, 0, 0, 0}), server::WireError);
}

TEST(ReplCodec, SnapshotImageRoundTrip) {
  ReplSnapshot msg;
  for (int i = 0; i < 1000; ++i) {
    msg.image.push_back(static_cast<std::uint8_t>(i * 37));
  }
  const ReplSnapshot back = ReplSnapshot::decode(msg.encode());
  EXPECT_EQ(back.image, msg.image);
}

TEST(ReplCodec, EventsRoundTripAllPayloadKinds) {
  ReplEvents msg;
  net::FileRequest file;
  file.id = 7;
  file.source = 1;
  file.destination = 2;
  file.size = 55.5;
  file.max_transfer_slots = 3;
  file.release_slot = 4;
  msg.events.push_back({4, 10, runtime::FileArrival{file}});
  msg.events.push_back({5, 11, runtime::LinkDown{3}});
  msg.events.push_back({6, 12, runtime::LinkUp{3}});
  msg.events.push_back({7, 13, runtime::CapacityChange{2, 42.25}});

  const ReplEvents back = ReplEvents::decode(msg.encode());
  ASSERT_EQ(back.events.size(), msg.events.size());
  EXPECT_EQ(back.events[0].slot, 4);
  EXPECT_EQ(back.events[0].seq, 10u);
  const auto& arrival = std::get<runtime::FileArrival>(back.events[0].payload);
  EXPECT_EQ(arrival.file.id, 7);
  EXPECT_EQ(arrival.file.size, 55.5);
  EXPECT_EQ(std::get<runtime::LinkDown>(back.events[1].payload).link, 3);
  EXPECT_EQ(std::get<runtime::CapacityChange>(back.events[3].payload).capacity,
            42.25);
}

/// Expects `fn` to throw WireError naming `tag` as an unknown event tag.
template <typename Fn>
void expect_unknown_tag(Fn&& fn, int tag) {
  try {
    fn();
    ADD_FAILURE() << "event tag " << tag << " was accepted";
  } catch (const server::WireError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown event tag " +
                                         std::to_string(tag)),
              std::string::npos)
        << e.what();
  }
}

// Tag 4 carried the deleted slot-tick event, tags 5 and 6 the deleted
// solver stall and fault events. None may decode into anything.
constexpr int kRetiredEventTags[] = {4, 5, 6};

TEST(ReplCodec, EventsWithARetiredTagAreRefused) {
  for (const int tag : kRetiredEventTags) {
    // One event as an older primary framed it: slot, seq, tag, then the
    // stall event's payload (backend, pivot budget).
    server::ByteWriter w;
    w.u32(1);
    w.i32(8);
    w.u64(14);
    w.u8(static_cast<std::uint8_t>(tag));
    w.i32(-1);
    w.i64(100);
    const std::vector<std::uint8_t> payload = w.take();
    expect_unknown_tag([&] { ReplEvents::decode(payload); }, tag);
  }
}

TEST(ReplCodec, SeedWithARetiredPendingEventTagIsRefused) {
  // A seed image whose pending-event section holds one event, its tag
  // rewritten to a retired one and the checksum recomputed, so only the
  // tag is wrong.
  net::Topology topology(2);
  topology.set_link(0, 1, 10.0, 1.0);
  topology.set_link(1, 0, 10.0, 1.0);
  runtime::ControllerRuntime seed{topology};
  seed.add_postcard_backend();
  runtime::RuntimeSnapshot snap = seed.capture_snapshot();
  const int slot = 0x3abcdef1;
  const std::uint64_t seq = 0x0102030405060708ULL;
  snap.pending_events.push_back({slot, seq, runtime::LinkDown{1}});
  const std::vector<std::uint8_t> image = server::encode_snapshot(snap);
  ASSERT_NO_THROW(server::decode_snapshot(image));

  server::ByteWriter head;
  head.i32(slot);
  head.u64(seq);
  const std::vector<std::uint8_t> prefix = head.take();
  const auto at = std::search(image.begin(), image.end(), prefix.begin(),
                              prefix.end());
  ASSERT_NE(at, image.end());
  const std::size_t tag_at =
      static_cast<std::size_t>(at - image.begin()) + prefix.size();
  for (const int tag : kRetiredEventTags) {
    std::vector<std::uint8_t> crafted = image;
    crafted[tag_at] = static_cast<std::uint8_t>(tag);
    std::uint64_t sum = audit::fnv1a64(crafted.data(), crafted.size() - 8);
    for (std::size_t i = crafted.size() - 8; i < crafted.size(); ++i) {
      crafted[i] = static_cast<std::uint8_t>(sum & 0xff);
      sum >>= 8;
    }
    expect_unknown_tag([&] { server::decode_snapshot(crafted); }, tag);
  }
}

TEST(ReplCodec, CommitAckHeartbeatReseedRoundTrip) {
  const ReplCommit commit = ReplCommit::decode(
      ReplCommit{12, 0xdeadbeefcafef00dULL}.encode());
  EXPECT_EQ(commit.slot, 12);
  EXPECT_EQ(commit.fingerprint, 0xdeadbeefcafef00dULL);

  EXPECT_EQ(ReplAck::decode(ReplAck{12}.encode()).slot, 12);

  EXPECT_TRUE(ReplHeartbeat{}.encode().empty());
  EXPECT_THROW(ReplHeartbeat::decode({7, 0, 0, 0}), server::WireError);
  EXPECT_EQ(ReplReseed::decode(ReplReseed{"gap at slot 3"}.encode()).reason,
            "gap at slot 3");
}

TEST(ReplCodec, EveryTruncationThrows) {
  std::vector<std::vector<std::uint8_t>> payloads;
  payloads.push_back(ReplAck{3}.encode());
  {
    ReplSnapshot s;
    s.image = {1, 2, 3, 4, 5};
    payloads.push_back(s.encode());
  }
  {
    ReplEvents e;
    net::FileRequest f;
    f.id = 1;
    f.source = 0;
    f.destination = 1;
    f.size = 1.0;
    e.events.push_back({0, 0, runtime::FileArrival{f}});
    e.events.push_back({1, 1, runtime::LinkDown{0}});
    payloads.push_back(e.encode());
  }
  payloads.push_back(ReplCommit{1, 2}.encode());
  payloads.push_back(ReplReseed{"diverged"}.encode());

  int decoder = 0;
  const auto try_decode = [&](const std::vector<std::uint8_t>& p) {
    switch (decoder) {
      case 0: ReplAck::decode(p); break;
      case 1: ReplSnapshot::decode(p); break;
      case 2: ReplEvents::decode(p); break;
      case 3: ReplCommit::decode(p); break;
      case 4: ReplReseed::decode(p); break;
    }
  };
  for (const std::vector<std::uint8_t>& payload : payloads) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      std::vector<std::uint8_t> prefix(payload.begin(), payload.begin() + cut);
      EXPECT_THROW(try_decode(prefix), server::WireError)
          << "decoder " << decoder << " prefix " << cut;
    }
    EXPECT_NO_THROW(try_decode(payload)) << "decoder " << decoder;
    ++decoder;
  }
}

// --- Fingerprint contract -------------------------------------------------

runtime::RuntimeStats driven_stats(std::uint64_t seed, int slots) {
  sim::WorkloadParams p;
  p.num_datacenters = 5;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 3;
  p.size_min = 10.0;
  p.size_max = 80.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = slots;
  p.seed = seed;
  const sim::UniformWorkload w(p);
  runtime::ControllerRuntime rt{net::Topology(w.topology()),
                                runtime::RuntimeOptions{}};
  rt.add_postcard_backend();
  for (int slot = 0; slot < slots; ++slot) {
    for (const net::FileRequest& f : w.batch(slot)) rt.ingress().submit(f);
    rt.tick();
  }
  return rt.stats();
}

TEST(Fingerprint, DeterministicAcrossIdenticalRuns) {
  const std::uint64_t a = runtime_fingerprint(driven_stats(77, 5));
  const std::uint64_t b = runtime_fingerprint(driven_stats(77, 5));
  EXPECT_EQ(a, b);
  // And different state digests differently.
  EXPECT_NE(a, runtime_fingerprint(driven_stats(78, 5)));
  EXPECT_NE(a, runtime_fingerprint(driven_stats(77, 4)));
}

TEST(Fingerprint, OneUlpOfCostDivergenceFlipsTheDigest) {
  runtime::RuntimeStats stats = driven_stats(79, 4);
  const std::uint64_t before = runtime_fingerprint(stats);
  ASSERT_FALSE(stats.backends.empty());
  ASSERT_FALSE(stats.backends[0].cost_series.empty());
  double& cost = stats.backends[0].cost_series.back();
  cost = std::nextafter(cost, cost + 1.0);
  EXPECT_NE(runtime_fingerprint(stats), before);
}

/// One named edit of a stats snapshot.
struct Mutation {
  const char* field;
  std::function<void(runtime::RuntimeStats&)> apply;
};

/// Applies each mutation to its own copy of `base`; returns the fields
/// whose edit changed the digest (`flips`) or left it alone (!flips).
std::vector<std::string> fields_whose_edit(bool flips,
                                           const runtime::RuntimeStats& base,
                                           const std::vector<Mutation>& ms) {
  const std::uint64_t before = runtime_fingerprint(base);
  std::vector<std::string> fields;
  for (const Mutation& m : ms) {
    runtime::RuntimeStats s = base;
    m.apply(s);
    if ((runtime_fingerprint(s) != before) == flips) fields.push_back(m.field);
  }
  return fields;
}

TEST(Fingerprint, CounterDivergenceFlipsTheDigest) {
  // Every deterministic field: replay reproduces it bit for bit, so any
  // edit of it is divergence.
  using S = runtime::RuntimeStats;
  const std::vector<Mutation> deterministic = {
      {"slots_processed", [](S& s) { s.slots_processed++; }},
      {"link_events", [](S& s) { s.link_events++; }},
      {"backends", [](S& s) { s.backends.emplace_back(); }},
      {"name", [](S& s) { s.backends[0].name += "'"; }},
      {"accepted_files", [](S& s) { s.backends[0].accepted_files++; }},
      {"accepted_volume", [](S& s) { s.backends[0].accepted_volume += 1; }},
      {"rejected_files", [](S& s) { s.backends[0].rejected_files++; }},
      {"rejected_volume", [](S& s) { s.backends[0].rejected_volume += 1; }},
      {"delivered_files", [](S& s) { s.backends[0].delivered_files++; }},
      {"delivered_volume", [](S& s) { s.backends[0].delivered_volume += 1; }},
      {"replans", [](S& s) { s.backends[0].replans++; }},
      {"replanned_volume", [](S& s) { s.backends[0].replanned_volume += 1; }},
      {"failed_files", [](S& s) { s.backends[0].failed_files++; }},
      {"failed_volume", [](S& s) { s.backends[0].failed_volume += 1; }},
      {"lp_iterations", [](S& s) { s.backends[0].lp_iterations++; }},
      {"lp_solves", [](S& s) { s.backends[0].lp_solves++; }},
      {"warm_accepts", [](S& s) { s.backends[0].warm_accepts++; }},
      {"cold_starts", [](S& s) { s.backends[0].cold_starts++; }},
      {"resumed_solves", [](S& s) { s.backends[0].resumed_solves++; }},
      {"charge_reduce_violations",
       [](S& s) { s.backends[0].charge_reduce_violations++; }},
      {"rung_full", [](S& s) { s.backends[0].rung_full++; }},
      {"rung_truncated", [](S& s) { s.backends[0].rung_truncated++; }},
      {"rung_greedy", [](S& s) { s.backends[0].rung_greedy++; }},
      {"carryover_files", [](S& s) { s.backends[0].carryover_files++; }},
      {"carryover_volume", [](S& s) { s.backends[0].carryover_volume += 1; }},
      {"carryover_entered_files",
       [](S& s) { s.backends[0].carryover_entered_files++; }},
      {"carryover_entered_volume",
       [](S& s) { s.backends[0].carryover_entered_volume += 1; }},
      {"degraded_slots", [](S& s) { s.backends[0].degraded_slots++; }},
      {"degraded_cost_delta",
       [](S& s) { s.backends[0].degraded_cost_delta += 1; }},
      {"solver_failures", [](S& s) { s.backends[0].solver_failures++; }},
      {"gave_up_files", [](S& s) { s.backends[0].gave_up_files++; }},
      {"gave_up_volume", [](S& s) { s.backends[0].gave_up_volume += 1; }},
      {"audit_armed",
       [](S& s) { s.backends[0].audit_armed = !s.backends[0].audit_armed; }},
      {"audit_checks", [](S& s) { s.backends[0].audit_checks++; }},
      {"audit_violations", [](S& s) { s.backends[0].audit_violations++; }},
      {"cost_series", [](S& s) { s.backends[0].cost_series.push_back(0.0); }},
  };
  EXPECT_EQ(fields_whose_edit(false, driven_stats(80, 4), deterministic),
            std::vector<std::string>{});
}

TEST(Fingerprint, WallClockAndIngressNoiseAreExcluded) {
  // Every telemetry field. Timing varies run to run even in deterministic
  // mode, and submissions, queue depth and server traffic race the commit
  // boundary on a live primary; a digest that hashed any of them would
  // reseed on every commit.
  using S = runtime::RuntimeStats;
  const std::vector<Mutation> telemetry = {
      {"queue_depth", [](S& s) { s.queue_depth += 3; }},
      {"submitted", [](S& s) { s.submitted += 10; }},
      {"admitted", [](S& s) { s.admitted += 10; }},
      {"ingress_rejected", [](S& s) { s.ingress_rejected++; }},
      {"ingress_rejected_volume", [](S& s) { s.ingress_rejected_volume += 1; }},
      {"slot_latency", [](S& s) { s.slot_latency.add(0.25); }},
      {"solve_latency", [](S& s) { s.solve_latency.add(0.25); }},
      {"sessions_opened", [](S& s) { s.server.sessions_opened++; }},
      {"sessions_closed", [](S& s) { s.server.sessions_closed++; }},
      {"frames_received", [](S& s) { s.server.frames_received++; }},
      {"frames_sent", [](S& s) { s.server.frames_sent++; }},
      {"submits", [](S& s) { s.server.submits++; }},
      {"submit_admitted", [](S& s) { s.server.submit_admitted++; }},
      {"backpressure_replies", [](S& s) { s.server.backpressure_replies++; }},
      {"queries", [](S& s) { s.server.queries++; }},
      {"protocol_errors", [](S& s) { s.server.protocol_errors++; }},
      {"snapshots_written", [](S& s) { s.server.snapshots_written++; }},
      {"slots_advanced", [](S& s) { s.server.slots_advanced++; }},
      {"sessions_reaped", [](S& s) { s.server.sessions_reaped++; }},
      {"pricing_seconds", [](S& s) { s.backends[0].pricing_seconds += 1.5; }},
      {"master_seconds", [](S& s) { s.backends[0].master_seconds += 0.5; }},
      {"last_solver_status",
       [](S& s) { s.backends[0].last_solver_status = "something else"; }},
      {"audit_seconds", [](S& s) { s.backends[0].audit_seconds += 0.5; }},
  };
  EXPECT_EQ(fields_whose_edit(true, driven_stats(81, 4), telemetry),
            std::vector<std::string>{});
}

TEST(Fnv1a, KnownVectors) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(audit::fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
  const std::uint8_t a = 'a';
  EXPECT_EQ(audit::fnv1a64(&a, 1), 0xaf63dc4c8601ec8cULL);
  const std::string foobar = "foobar";
  EXPECT_EQ(audit::fnv1a64(
                reinterpret_cast<const std::uint8_t*>(foobar.data()),
                foobar.size()),
            0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace postcard::replication
