// Wire-layer unit tests: codec round-trips, bounds-checked decoding, and
// framing over real fds. The truncation sweep decodes every message at
// every prefix length — each must throw WireError, never read out of
// bounds (the suite runs under ASan/UBSan via the `server` ctest label).
#include "server/wire.h"

#include <gtest/gtest.h>
#include <chrono>
#include <limits>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>

#include "audit/fingerprint.h"
#include "server/protocol.h"

namespace postcard::server {
namespace {

TEST(ByteCodec, ScalarsRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(3.14159265358979312);
  w.boolean(true);
  w.str("postcard");
  w.str("");

  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), 3.14159265358979312);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "postcard");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_NO_THROW(r.require_done());
}

TEST(ByteCodec, DoublesAreBitExact) {
  // The snapshot's bit-for-bit guarantee rests on this: encode/decode must
  // preserve the exact bit pattern, including signed zero, denormals, inf
  // and NaN payloads.
  const double values[] = {0.0,
                           -0.0,
                           1e-310,  // denormal
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           0.1,
                           1.0 / 3.0};
  for (double v : values) {
    ByteWriter w;
    w.f64(v);
    ByteReader r(w.data());
    const double back = r.f64();
    std::uint64_t a, b;
    std::memcpy(&a, &v, 8);
    std::memcpy(&b, &back, 8);
    EXPECT_EQ(a, b);
  }
}

TEST(ByteCodec, TruncatedScalarThrows) {
  ByteWriter w;
  w.u64(7);
  for (std::size_t cut = 0; cut < 8; ++cut) {
    ByteReader r(w.data().data(), cut);
    EXPECT_THROW(r.u64(), WireError) << "prefix " << cut;
  }
}

TEST(ByteCodec, LyingStringLengthThrows) {
  ByteWriter w;
  w.u32(1000);  // declares 1000 bytes...
  w.u8('x');    // ...delivers one
  ByteReader r(w.data());
  EXPECT_THROW(r.str(), WireError);
}

TEST(ByteCodec, LyingElementCountThrows) {
  ByteWriter w;
  w.u32(0x40000000u);  // ~1 billion declared 8-byte elements
  ByteReader r(w.data());
  EXPECT_THROW(r.length(8), WireError);
}

TEST(ByteCodec, TrailingGarbageDetected) {
  ByteWriter w;
  w.u32(1);
  w.u8(0xff);
  ByteReader r(w.data());
  r.u32();
  EXPECT_THROW(r.require_done(), WireError);
}

net::FileRequest sample_file(int id) {
  net::FileRequest f;
  f.id = id;
  f.source = 1;
  f.destination = 3;
  f.size = 42.5;
  f.max_transfer_slots = 3;
  f.release_slot = 7;
  return f;
}

TEST(ProtocolCodec, SubmitBatchRoundTrip) {
  SubmitBatchRequest req;
  req.files = {sample_file(1), sample_file(2), sample_file(900)};
  const SubmitBatchRequest back = SubmitBatchRequest::decode(req.encode());
  ASSERT_EQ(back.files.size(), 3u);
  EXPECT_EQ(back.files[2].id, 900);
  EXPECT_EQ(back.files[0].size, 42.5);
  EXPECT_EQ(back.files[1].max_transfer_slots, 3);
}

TEST(ProtocolCodec, PlanReplyRoundTrip) {
  PlanReply reply;
  reply.found = true;
  reply.request = sample_file(5);
  reply.plan.file_id = 5;
  core::Transfer t;
  t.slot = 7;
  t.from = 1;
  t.to = 2;
  t.volume = 21.25;
  t.link = 4;
  reply.plan.transfers.push_back(t);
  t.link = -1;  // storage leg
  t.from = t.to = 2;
  reply.plan.transfers.push_back(t);

  const PlanReply back = PlanReply::decode(reply.encode());
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.request.id, 5);
  ASSERT_EQ(back.plan.transfers.size(), 2u);
  EXPECT_EQ(back.plan.transfers[0].volume, 21.25);
  EXPECT_TRUE(back.plan.transfers[1].storage());
}

// Every field of a backend's stats set to a value no other field holds,
// offset by `k` so two backends differ too.
runtime::BackendStats distinct_backend(const std::string& name, long k) {
  runtime::BackendStats b;
  b.name = name;
  b.accepted_files = k + 1;
  b.accepted_volume = static_cast<double>(k) + 2.5;
  b.rejected_files = k + 3;
  b.rejected_volume = static_cast<double>(k) + 4.5;
  b.delivered_files = k + 5;
  b.delivered_volume = static_cast<double>(k) + 6.5;
  b.replans = k + 7;
  b.replanned_volume = static_cast<double>(k) + 8.5;
  b.failed_files = k + 9;
  b.failed_volume = static_cast<double>(k) + 10.5;
  b.lp_iterations = k + 11;
  b.lp_solves = static_cast<int>(k) + 12;
  b.warm_accepts = k + 13;
  b.cold_starts = k + 14;
  b.pricing_seconds = static_cast<double>(k) + 15.5;
  b.master_seconds = static_cast<double>(k) + 16.5;
  b.resumed_solves = k + 17;
  b.charge_reduce_violations = k + 18;
  b.rung_full = k + 19;
  b.rung_truncated = k + 20;
  b.rung_greedy = k + 21;
  b.carryover_files = k + 22;
  b.carryover_volume = static_cast<double>(k) + 23.5;
  b.carryover_entered_files = k + 24;
  b.carryover_entered_volume = static_cast<double>(k) + 25.5;
  b.degraded_slots = k + 26;
  b.degraded_cost_delta = static_cast<double>(k) + 27.5;
  b.solver_failures = k + 28;
  b.last_solver_status = name + " status";
  b.gave_up_files = k + 29;
  b.gave_up_volume = static_cast<double>(k) + 30.5;
  b.audit_armed = k % 2 == 0;
  b.audit_checks = k + 31;
  b.audit_violations = k + 32;
  b.audit_seconds = static_cast<double>(k) + 33.5;
  b.cost_series = {static_cast<double>(k) + 0.125,
                   static_cast<double>(k) + 0.25};
  return b;
}

void expect_backend_eq(const runtime::BackendStats& a,
                       const runtime::BackendStats& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.accepted_files, b.accepted_files);
  EXPECT_EQ(a.accepted_volume, b.accepted_volume);
  EXPECT_EQ(a.rejected_files, b.rejected_files);
  EXPECT_EQ(a.rejected_volume, b.rejected_volume);
  EXPECT_EQ(a.delivered_files, b.delivered_files);
  EXPECT_EQ(a.delivered_volume, b.delivered_volume);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.replanned_volume, b.replanned_volume);
  EXPECT_EQ(a.failed_files, b.failed_files);
  EXPECT_EQ(a.failed_volume, b.failed_volume);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.lp_solves, b.lp_solves);
  EXPECT_EQ(a.warm_accepts, b.warm_accepts);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.pricing_seconds, b.pricing_seconds);
  EXPECT_EQ(a.master_seconds, b.master_seconds);
  EXPECT_EQ(a.resumed_solves, b.resumed_solves);
  EXPECT_EQ(a.charge_reduce_violations, b.charge_reduce_violations);
  EXPECT_EQ(a.rung_full, b.rung_full);
  EXPECT_EQ(a.rung_truncated, b.rung_truncated);
  EXPECT_EQ(a.rung_greedy, b.rung_greedy);
  EXPECT_EQ(a.carryover_files, b.carryover_files);
  EXPECT_EQ(a.carryover_volume, b.carryover_volume);
  EXPECT_EQ(a.carryover_entered_files, b.carryover_entered_files);
  EXPECT_EQ(a.carryover_entered_volume, b.carryover_entered_volume);
  EXPECT_EQ(a.degraded_slots, b.degraded_slots);
  EXPECT_EQ(a.degraded_cost_delta, b.degraded_cost_delta);
  EXPECT_EQ(a.solver_failures, b.solver_failures);
  EXPECT_EQ(a.last_solver_status, b.last_solver_status);
  EXPECT_EQ(a.gave_up_files, b.gave_up_files);
  EXPECT_EQ(a.gave_up_volume, b.gave_up_volume);
  EXPECT_EQ(a.audit_armed, b.audit_armed);
  EXPECT_EQ(a.audit_checks, b.audit_checks);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  EXPECT_EQ(a.audit_seconds, b.audit_seconds);
  EXPECT_EQ(a.cost_series, b.cost_series);
}

void expect_histogram_eq(const runtime::LatencyHistogram& a,
                         const runtime::LatencyHistogram& b) {
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.total_seconds(), b.total_seconds());
  EXPECT_EQ(a.max_seconds(), b.max_seconds());
}

TEST(ProtocolCodec, StatsReplyRoundTrip) {
  runtime::RuntimeStats stats;
  stats.slots_processed = 12;
  stats.queue_depth = 3;
  stats.submitted = 100;
  stats.admitted = 95;
  stats.ingress_rejected = 5;
  stats.ingress_rejected_volume = 123.75;
  stats.link_events = 6;
  stats.slot_latency.add(0.001);
  stats.slot_latency.add(0.01);
  stats.solve_latency.add(0.0005);
  stats.server.sessions_opened = 8;
  stats.server.sessions_closed = 9;
  stats.server.frames_received = 10;
  stats.server.frames_sent = 11;
  stats.server.submits = 13;
  stats.server.submit_admitted = 14;
  stats.server.backpressure_replies = 15;
  stats.server.queries = 16;
  stats.server.protocol_errors = 17;
  stats.server.snapshots_written = 18;
  stats.server.slots_advanced = 19;
  stats.server.sessions_reaped = 20;
  stats.backends.push_back(distinct_backend("postcard", 100));
  stats.backends.push_back(distinct_backend("no-storage", 201));

  StatsReply reply;
  reply.stats = stats;
  const std::vector<std::uint8_t> bytes = reply.encode();
  const StatsReply back = StatsReply::decode(bytes);
  EXPECT_EQ(back.stats.slots_processed, 12);
  EXPECT_EQ(back.stats.queue_depth, 3u);
  EXPECT_EQ(back.stats.submitted, 100);
  EXPECT_EQ(back.stats.admitted, 95);
  EXPECT_EQ(back.stats.ingress_rejected, 5);
  EXPECT_EQ(back.stats.ingress_rejected_volume, 123.75);
  EXPECT_EQ(back.stats.link_events, 6);
  expect_histogram_eq(back.stats.slot_latency, stats.slot_latency);
  expect_histogram_eq(back.stats.solve_latency, stats.solve_latency);
  EXPECT_EQ(back.stats.server.sessions_opened, 8);
  EXPECT_EQ(back.stats.server.sessions_closed, 9);
  EXPECT_EQ(back.stats.server.frames_received, 10);
  EXPECT_EQ(back.stats.server.frames_sent, 11);
  EXPECT_EQ(back.stats.server.submits, 13);
  EXPECT_EQ(back.stats.server.submit_admitted, 14);
  EXPECT_EQ(back.stats.server.backpressure_replies, 15);
  EXPECT_EQ(back.stats.server.queries, 16);
  EXPECT_EQ(back.stats.server.protocol_errors, 17);
  EXPECT_EQ(back.stats.server.snapshots_written, 18);
  EXPECT_EQ(back.stats.server.slots_advanced, 19);
  EXPECT_EQ(back.stats.server.sessions_reaped, 20);
  ASSERT_EQ(back.stats.backends.size(), 2u);
  expect_backend_eq(back.stats.backends[0], stats.backends[0]);
  expect_backend_eq(back.stats.backends[1], stats.backends[1]);

  // The byte layout itself is pinned: a reordered, retyped or dropped
  // field changes this digest even when encoder and decoder agree.
  EXPECT_EQ(audit::fnv1a64(bytes.data(), bytes.size()), 0x2f3a233ab25a817eULL)
      << bytes.size() << " bytes";
}

TEST(ProtocolCodec, EveryTruncationOfEveryMessageThrows) {
  // Build one payload per codec, then decode every strict prefix: all must
  // throw WireError (bounds respected), none may crash or succeed.
  std::vector<std::vector<std::uint8_t>> payloads;
  {
    SubmitFileRequest r;
    r.file = sample_file(1);
    payloads.push_back(r.encode());
  }
  {
    SubmitBatchRequest r;
    r.files = {sample_file(1), sample_file(2)};
    payloads.push_back(r.encode());
  }
  {
    QueryPlanRequest r;
    r.backend = 0;
    r.file_id = 17;
    payloads.push_back(r.encode());
  }
  {
    SnapshotRequest r;
    r.path = "/tmp/x.psnp";
    payloads.push_back(r.encode());
  }
  {
    BatchReply r;
    r.verdicts.resize(2);
    r.verdicts[1].reason = "no egress";
    payloads.push_back(r.encode());
  }
  {
    PlanReply r;
    r.found = true;
    r.request = sample_file(4);
    r.plan.file_id = 4;
    r.plan.transfers.resize(2);
    payloads.push_back(r.encode());
  }

  int decoder = 0;
  const auto try_decode = [&](const std::vector<std::uint8_t>& p) {
    switch (decoder) {
      case 0: SubmitFileRequest::decode(p); break;
      case 1: SubmitBatchRequest::decode(p); break;
      case 2: QueryPlanRequest::decode(p); break;
      case 3: SnapshotRequest::decode(p); break;
      case 4: BatchReply::decode(p); break;
      case 5: PlanReply::decode(p); break;
    }
  };
  for (const std::vector<std::uint8_t>& payload : payloads) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      std::vector<std::uint8_t> prefix(payload.begin(),
                                       payload.begin() + cut);
      EXPECT_THROW(try_decode(prefix), WireError)
          << "decoder " << decoder << " prefix " << cut;
    }
    // The full payload must decode cleanly.
    EXPECT_NO_THROW(try_decode(payload)) << "decoder " << decoder;
    ++decoder;
  }
}

// --- Framing over real fds ------------------------------------------------

struct FdPair {
  int a = -1, b = -1;
  FdPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~FdPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

TEST(Framing, RoundTripAndCleanEof) {
  FdPair p;
  SubmitFileRequest req;
  req.file = sample_file(9);
  write_frame(p.a, MessageType::kSubmitFile, req.encode());
  ::shutdown(p.a, SHUT_WR);

  Frame frame;
  ASSERT_TRUE(read_frame(p.b, &frame));
  EXPECT_EQ(frame.type, MessageType::kSubmitFile);
  EXPECT_EQ(SubmitFileRequest::decode(frame.payload).file.id, 9);
  // Next read sees a clean EOF on the frame boundary: false, no throw.
  EXPECT_FALSE(read_frame(p.b, &frame));
}

TEST(Framing, MidFrameEofThrows) {
  FdPair p;
  const std::vector<std::uint8_t> full =
      encode_frame(MessageType::kQueryStats, {1, 2, 3, 4});
  // Deliver all but the last byte, then close.
  write_all(p.a, full.data(), full.size() - 1);
  ::shutdown(p.a, SHUT_WR);
  Frame frame;
  EXPECT_THROW(read_frame(p.b, &frame), WireError);
}

TEST(Framing, OversizedDeclaredLengthRejectedBeforeAllocation) {
  FdPair p;
  ByteWriter header;
  header.u32(0xffffffffu);  // 4 GB declared payload
  header.u16(kProtocolVersion);
  header.u16(static_cast<std::uint16_t>(MessageType::kSubmitFile));
  write_all(p.a, header.data().data(), header.size());
  Frame frame;
  EXPECT_THROW(read_frame(p.b, &frame), WireError);
}

TEST(Framing, WrongVersionRejected) {
  FdPair p;
  ByteWriter header;
  header.u32(0);
  header.u16(kProtocolVersion + 1);
  header.u16(static_cast<std::uint16_t>(MessageType::kQueryStats));
  write_all(p.a, header.data().data(), header.size());
  Frame frame;
  EXPECT_THROW(read_frame(p.b, &frame), WireError);
}

TEST(Framing, ReceiveDeadlineSurfacesAsWireTimeout) {
  FdPair p;
  timeval tv{};
  tv.tv_usec = 50 * 1000;
  ASSERT_EQ(::setsockopt(p.b, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);

  // A peer that is merely idle: the deadline trips on the frame boundary
  // as a WireTimeout, which the session reaper closes quietly — not a
  // protocol error.
  Frame frame;
  EXPECT_THROW(read_frame(p.b, &frame), WireTimeout)
      << "silent peer never timed out";

  // A peer that stalls INSIDE a frame (half-open or wedged): the same
  // exception, and the reaper closes it the same way — resuming is not an
  // option because the stream position is torn.
  const std::vector<std::uint8_t> full =
      encode_frame(MessageType::kQueryStats, {1, 2, 3, 4});
  write_all(p.a, full.data(), 3);  // a fragment of the header, then silence
  EXPECT_THROW(read_frame(p.b, &frame), WireTimeout)
      << "mid-frame stall never timed out";
}

TEST(Framing, UnparsableHostThrowsFromListenAndConnect) {
  // Both socket helpers refuse a host inet_pton cannot parse, before any
  // socket exists, and name the address they were given.
  int port = -1;
  try {
    listen_tcp("not-an-address", 0, /*backlog=*/4, &port);
    FAIL() << "listen_tcp accepted an unparsable host";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("not-an-address:0"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(port, -1);
  try {
    connect_tcp("not-an-address", 7421, /*recv_timeout_ms=*/0);
    FAIL() << "connect_tcp accepted an unparsable host";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find("not-an-address:7421"),
              std::string::npos)
        << e.what();
  }
}

TEST(Framing, WriteDeadlineTripsWhenPeerStopsDraining) {
  // The replication primary's protection against a stalled standby: a
  // bounded write_frame must throw WireTimeout once the peer's buffers
  // fill, instead of blocking the slot driver forever. Both socket
  // buffers are shrunk to their kernel minimum and SO_SNDTIMEO makes the
  // blocking send surface EAGAIN for write_all's poll deadline — the same
  // arrangement the primary applies to accepted replication connections.
  FdPair p;
  const int tiny = 1;  // the kernel clamps this up to its minimum
  ::setsockopt(p.a, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  ::setsockopt(p.b, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  timeval tv{};
  tv.tv_usec = 20 * 1000;
  ASSERT_EQ(::setsockopt(p.a, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)), 0);

  const std::vector<std::uint8_t> payload(1 << 20, 0x5a);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(write_frame(p.a, MessageType::kSubmitBatch, payload, 250),
               WireTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // The deadline bounds the WHOLE write: well under the time a megabyte
  // would take at one-buffer-per-20ms, and with slack over the 250ms ask.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);

  // The same write with a draining peer completes fine — the deadline
  // only ever fires on a genuine stall. Fresh pair: the timed-out write
  // above left a torn frame prefix in the old stream.
  FdPair q;
  ::setsockopt(q.a, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  ::setsockopt(q.b, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  ASSERT_EQ(::setsockopt(q.a, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)), 0);
  std::thread reader([&] {
    Frame frame;
    ASSERT_TRUE(read_frame(q.b, &frame));
    EXPECT_EQ(frame.payload.size(), payload.size());
  });
  write_frame(q.a, MessageType::kSubmitBatch, payload, 30000);
  reader.join();
}

TEST(Framing, PartialWritesReassemble) {
  // A peer dribbling one byte at a time must still produce a whole frame.
  FdPair p;
  const std::vector<std::uint8_t> full =
      encode_frame(MessageType::kAdvanceSlot, AdvanceSlotRequest{3}.encode());
  std::thread writer([&] {
    for (std::uint8_t byte : full) write_all(p.a, &byte, 1);
  });
  Frame frame;
  ASSERT_TRUE(read_frame(p.b, &frame));
  writer.join();
  EXPECT_EQ(frame.type, MessageType::kAdvanceSlot);
  EXPECT_EQ(AdvanceSlotRequest::decode(frame.payload).slots, 3);
}

}  // namespace
}  // namespace postcard::server
