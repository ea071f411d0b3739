#include "server/protocol.h"

namespace postcard::server {

namespace {

// Conservative per-element minimum sizes for ByteReader::length checks.
constexpr std::size_t kFileRequestBytes = 4 * 4 + 8;  // 4 ints + 1 double
constexpr std::size_t kTransferBytes = 4 * 4 + 8;
// flag, slot, empty str, duplicate flag
constexpr std::size_t kVerdictMinBytes = 1 + 4 + 4 + 1;

template <typename Struct, typename DecodeBody>
Struct decode_payload(const std::vector<std::uint8_t>& payload,
                      DecodeBody&& body) {
  ByteReader r(payload);
  Struct out = body(r);
  r.require_done();
  return out;
}

void encode_verdict(ByteWriter& w, const SubmitVerdict& v) {
  w.boolean(v.admitted);
  w.i32(v.slot);
  w.str(v.reason);
  w.boolean(v.duplicate);
}

SubmitVerdict decode_verdict(ByteReader& r) {
  SubmitVerdict v;
  v.admitted = r.boolean();
  v.slot = r.i32();
  v.reason = r.str();
  v.duplicate = r.boolean();
  return v;
}

// Event payload discriminants, shared by the snapshot file and the
// replication stream. Kept independent of the std::variant index so
// reordering EventPayload alternatives cannot silently change the format.
// Tag 4 belonged to the deleted slot-tick event and tags 5 and 6 to the
// deleted solver stall and fault events; all three stay unassigned.
enum class EventTag : std::uint8_t {
  kLinkDown = 0,
  kLinkUp = 1,
  kCapacityChange = 2,
  kFileArrival = 3,
};

}  // namespace

// --- Shared domain-type codecs ------------------------------------------

void encode_file_request(ByteWriter& w, const net::FileRequest& f) {
  w.i32(f.id);
  w.i32(f.source);
  w.i32(f.destination);
  w.f64(f.size);
  w.i32(f.max_transfer_slots);
  w.i32(f.release_slot);
}

net::FileRequest decode_file_request(ByteReader& r) {
  net::FileRequest f;
  f.id = r.i32();
  f.source = r.i32();
  f.destination = r.i32();
  f.size = r.f64();
  f.max_transfer_slots = r.i32();
  f.release_slot = r.i32();
  return f;
}

void encode_file_plan(ByteWriter& w, const core::FilePlan& p) {
  w.i32(p.file_id);
  w.u32(static_cast<std::uint32_t>(p.transfers.size()));
  for (const core::Transfer& t : p.transfers) {
    w.i32(t.slot);
    w.i32(t.from);
    w.i32(t.to);
    w.f64(t.volume);
    w.i32(t.link);
  }
}

core::FilePlan decode_file_plan(ByteReader& r) {
  core::FilePlan p;
  p.file_id = r.i32();
  const std::size_t n = r.length(kTransferBytes);
  p.transfers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::Transfer t;
    t.slot = r.i32();
    t.from = r.i32();
    t.to = r.i32();
    t.volume = r.f64();
    t.link = r.i32();
    p.transfers.push_back(t);
  }
  return p;
}

void encode_histogram(ByteWriter& w, const runtime::LatencyHistogram& h) {
  for (std::int64_t b : h.buckets()) w.i64(b);
  w.i64(h.count());
  w.f64(h.total_seconds());
  w.f64(h.max_seconds());
}

runtime::LatencyHistogram decode_histogram(ByteReader& r) {
  std::array<std::int64_t, runtime::LatencyHistogram::kBuckets> buckets{};
  for (std::int64_t& b : buckets) b = r.i64();
  const std::int64_t count = r.i64();
  const double total = r.f64();
  const double max = r.f64();
  return runtime::LatencyHistogram::restore(buckets, count, total, max);
}

void encode_backend_stats(ByteWriter& w, const runtime::BackendStats& s) {
  w.str(s.name);
  w.i64(s.accepted_files);
  w.f64(s.accepted_volume);
  w.i64(s.rejected_files);
  w.f64(s.rejected_volume);
  w.i64(s.delivered_files);
  w.f64(s.delivered_volume);
  w.i64(s.replans);
  w.f64(s.replanned_volume);
  w.i64(s.failed_files);
  w.f64(s.failed_volume);
  w.i64(s.lp_iterations);
  w.i32(s.lp_solves);
  w.i64(s.warm_accepts);
  w.i64(s.cold_starts);
  w.f64(s.pricing_seconds);
  w.f64(s.master_seconds);
  w.i64(s.resumed_solves);
  w.i64(s.charge_reduce_violations);
  w.i64(s.rung_full);
  w.i64(s.rung_truncated);
  w.i64(s.rung_greedy);
  w.i64(s.carryover_files);
  w.f64(s.carryover_volume);
  w.i64(s.carryover_entered_files);
  w.f64(s.carryover_entered_volume);
  w.i64(s.degraded_slots);
  w.f64(s.degraded_cost_delta);
  w.i64(s.solver_failures);
  w.str(s.last_solver_status);
  w.i64(s.gave_up_files);
  w.f64(s.gave_up_volume);
  w.boolean(s.audit_armed);
  w.i64(s.audit_checks);
  w.i64(s.audit_violations);
  w.f64(s.audit_seconds);
  w.u32(static_cast<std::uint32_t>(s.cost_series.size()));
  for (double c : s.cost_series) w.f64(c);
}

runtime::BackendStats decode_backend_stats(ByteReader& r) {
  runtime::BackendStats s;
  s.name = r.str();
  s.accepted_files = r.i64();
  s.accepted_volume = r.f64();
  s.rejected_files = r.i64();
  s.rejected_volume = r.f64();
  s.delivered_files = r.i64();
  s.delivered_volume = r.f64();
  s.replans = r.i64();
  s.replanned_volume = r.f64();
  s.failed_files = r.i64();
  s.failed_volume = r.f64();
  s.lp_iterations = r.i64();
  s.lp_solves = r.i32();
  s.warm_accepts = r.i64();
  s.cold_starts = r.i64();
  s.pricing_seconds = r.f64();
  s.master_seconds = r.f64();
  s.resumed_solves = r.i64();
  s.charge_reduce_violations = r.i64();
  s.rung_full = r.i64();
  s.rung_truncated = r.i64();
  s.rung_greedy = r.i64();
  s.carryover_files = r.i64();
  s.carryover_volume = r.f64();
  s.carryover_entered_files = r.i64();
  s.carryover_entered_volume = r.f64();
  s.degraded_slots = r.i64();
  s.degraded_cost_delta = r.f64();
  s.solver_failures = r.i64();
  s.last_solver_status = r.str();
  s.gave_up_files = r.i64();
  s.gave_up_volume = r.f64();
  s.audit_armed = r.boolean();
  s.audit_checks = r.i64();
  s.audit_violations = r.i64();
  s.audit_seconds = r.f64();
  const std::size_t costs = r.length(8);
  s.cost_series.reserve(costs);
  for (std::size_t i = 0; i < costs; ++i) s.cost_series.push_back(r.f64());
  return s;
}

void encode_runtime_stats(ByteWriter& w, const runtime::RuntimeStats& s) {
  w.i32(s.slots_processed);
  w.u64(static_cast<std::uint64_t>(s.queue_depth));
  w.i64(s.submitted);
  w.i64(s.admitted);
  w.i64(s.ingress_rejected);
  w.f64(s.ingress_rejected_volume);
  w.i64(s.link_events);
  encode_histogram(w, s.slot_latency);
  encode_histogram(w, s.solve_latency);
  w.i64(s.server.sessions_opened);
  w.i64(s.server.sessions_closed);
  w.i64(s.server.frames_received);
  w.i64(s.server.frames_sent);
  w.i64(s.server.submits);
  w.i64(s.server.submit_admitted);
  w.i64(s.server.backpressure_replies);
  w.i64(s.server.queries);
  w.i64(s.server.protocol_errors);
  w.i64(s.server.snapshots_written);
  w.i64(s.server.slots_advanced);
  w.i64(s.server.sessions_reaped);
  w.u32(static_cast<std::uint32_t>(s.backends.size()));
  for (const runtime::BackendStats& b : s.backends) encode_backend_stats(w, b);
}

void encode_event(ByteWriter& w, const runtime::Event& e) {
  w.i32(e.slot);
  w.u64(e.seq);
  if (const auto* d = std::get_if<runtime::LinkDown>(&e.payload)) {
    w.u8(static_cast<std::uint8_t>(EventTag::kLinkDown));
    w.i32(d->link);
  } else if (const auto* u = std::get_if<runtime::LinkUp>(&e.payload)) {
    w.u8(static_cast<std::uint8_t>(EventTag::kLinkUp));
    w.i32(u->link);
  } else if (const auto* c =
                 std::get_if<runtime::CapacityChange>(&e.payload)) {
    w.u8(static_cast<std::uint8_t>(EventTag::kCapacityChange));
    w.i32(c->link);
    w.f64(c->capacity);
  } else if (const auto* a = std::get_if<runtime::FileArrival>(&e.payload)) {
    w.u8(static_cast<std::uint8_t>(EventTag::kFileArrival));
    encode_file_request(w, a->file);
  } else {
    throw WireError("unknown event payload variant");
  }
}

runtime::Event decode_event(ByteReader& r) {
  runtime::Event e;
  e.slot = r.i32();
  e.seq = r.u64();
  const auto tag = static_cast<EventTag>(r.u8());
  switch (tag) {
    case EventTag::kLinkDown:
      e.payload = runtime::LinkDown{r.i32()};
      break;
    case EventTag::kLinkUp:
      e.payload = runtime::LinkUp{r.i32()};
      break;
    case EventTag::kCapacityChange: {
      runtime::CapacityChange c;
      c.link = r.i32();
      c.capacity = r.f64();
      e.payload = c;
      break;
    }
    case EventTag::kFileArrival:
      e.payload = runtime::FileArrival{decode_file_request(r)};
      break;
    default:
      throw WireError("unknown event tag " +
                      std::to_string(static_cast<int>(tag)));
  }
  return e;
}

runtime::RuntimeStats decode_runtime_stats(ByteReader& r) {
  runtime::RuntimeStats s;
  s.slots_processed = r.i32();
  s.queue_depth = static_cast<std::size_t>(r.u64());
  s.submitted = r.i64();
  s.admitted = r.i64();
  s.ingress_rejected = r.i64();
  s.ingress_rejected_volume = r.f64();
  s.link_events = r.i64();
  s.slot_latency = decode_histogram(r);
  s.solve_latency = decode_histogram(r);
  s.server.sessions_opened = r.i64();
  s.server.sessions_closed = r.i64();
  s.server.frames_received = r.i64();
  s.server.frames_sent = r.i64();
  s.server.submits = r.i64();
  s.server.submit_admitted = r.i64();
  s.server.backpressure_replies = r.i64();
  s.server.queries = r.i64();
  s.server.protocol_errors = r.i64();
  s.server.snapshots_written = r.i64();
  s.server.slots_advanced = r.i64();
  s.server.sessions_reaped = r.i64();
  const std::size_t backends = r.length(4);
  s.backends.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) {
    s.backends.push_back(decode_backend_stats(r));
  }
  return s;
}

// --- Requests ------------------------------------------------------------

std::vector<std::uint8_t> SubmitFileRequest::encode() const {
  ByteWriter w;
  encode_file_request(w, file);
  return w.take();
}

SubmitFileRequest SubmitFileRequest::decode(
    const std::vector<std::uint8_t>& payload) {
  return decode_payload<SubmitFileRequest>(payload, [](ByteReader& r) {
    return SubmitFileRequest{decode_file_request(r)};
  });
}

std::vector<std::uint8_t> SubmitBatchRequest::encode() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(files.size()));
  for (const net::FileRequest& f : files) encode_file_request(w, f);
  return w.take();
}

SubmitBatchRequest SubmitBatchRequest::decode(
    const std::vector<std::uint8_t>& payload) {
  return decode_payload<SubmitBatchRequest>(payload, [](ByteReader& r) {
    SubmitBatchRequest req;
    const std::size_t n = r.length(kFileRequestBytes);
    req.files.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      req.files.push_back(decode_file_request(r));
    }
    return req;
  });
}

std::vector<std::uint8_t> QueryPlanRequest::encode() const {
  ByteWriter w;
  w.i32(backend);
  w.i32(file_id);
  return w.take();
}

QueryPlanRequest QueryPlanRequest::decode(
    const std::vector<std::uint8_t>& payload) {
  return decode_payload<QueryPlanRequest>(payload, [](ByteReader& r) {
    QueryPlanRequest req;
    req.backend = r.i32();
    req.file_id = r.i32();
    return req;
  });
}

std::vector<std::uint8_t> SnapshotRequest::encode() const {
  ByteWriter w;
  w.str(path);
  return w.take();
}

SnapshotRequest SnapshotRequest::decode(
    const std::vector<std::uint8_t>& payload) {
  return decode_payload<SnapshotRequest>(payload, [](ByteReader& r) {
    return SnapshotRequest{r.str()};
  });
}

std::vector<std::uint8_t> AdvanceSlotRequest::encode() const {
  ByteWriter w;
  w.i32(slots);
  return w.take();
}

AdvanceSlotRequest AdvanceSlotRequest::decode(
    const std::vector<std::uint8_t>& payload) {
  return decode_payload<AdvanceSlotRequest>(payload, [](ByteReader& r) {
    return AdvanceSlotRequest{r.i32()};
  });
}

// --- Replies -------------------------------------------------------------

std::vector<std::uint8_t> SubmitReply::encode() const {
  ByteWriter w;
  encode_verdict(w, verdict);
  return w.take();
}

SubmitReply SubmitReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<SubmitReply>(payload, [](ByteReader& r) {
    return SubmitReply{decode_verdict(r)};
  });
}

std::vector<std::uint8_t> BatchReply::encode() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(verdicts.size()));
  for (const SubmitVerdict& v : verdicts) encode_verdict(w, v);
  return w.take();
}

BatchReply BatchReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<BatchReply>(payload, [](ByteReader& r) {
    BatchReply reply;
    const std::size_t n = r.length(kVerdictMinBytes);
    reply.verdicts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      reply.verdicts.push_back(decode_verdict(r));
    }
    return reply;
  });
}

std::vector<std::uint8_t> PlanReply::encode() const {
  ByteWriter w;
  w.boolean(found);
  encode_file_request(w, request);
  encode_file_plan(w, plan);
  return w.take();
}

PlanReply PlanReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<PlanReply>(payload, [](ByteReader& r) {
    PlanReply reply;
    reply.found = r.boolean();
    reply.request = decode_file_request(r);
    reply.plan = decode_file_plan(r);
    return reply;
  });
}

std::vector<std::uint8_t> StatsReply::encode() const {
  ByteWriter w;
  encode_runtime_stats(w, stats);
  return w.take();
}

StatsReply StatsReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<StatsReply>(payload, [](ByteReader& r) {
    return StatsReply{decode_runtime_stats(r)};
  });
}

std::vector<std::uint8_t> SnapshotReply::encode() const {
  ByteWriter w;
  w.boolean(ok);
  w.str(message);
  return w.take();
}

SnapshotReply SnapshotReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<SnapshotReply>(payload, [](ByteReader& r) {
    SnapshotReply reply;
    reply.ok = r.boolean();
    reply.message = r.str();
    return reply;
  });
}

std::vector<std::uint8_t> AdvanceReply::encode() const {
  ByteWriter w;
  w.i32(next_slot);
  return w.take();
}

AdvanceReply AdvanceReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<AdvanceReply>(payload, [](ByteReader& r) {
    return AdvanceReply{r.i32()};
  });
}

std::vector<std::uint8_t> ErrorReply::encode() const {
  ByteWriter w;
  w.str(message);
  return w.take();
}

ErrorReply ErrorReply::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ErrorReply>(payload, [](ByteReader& r) {
    return ErrorReply{r.str()};
  });
}

}  // namespace postcard::server
