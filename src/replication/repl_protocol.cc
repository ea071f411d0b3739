#include "replication/repl_protocol.h"

#include "audit/fingerprint.h"

namespace postcard::replication {

using server::ByteReader;
using server::ByteWriter;

namespace {

template <typename Struct, typename DecodeBody>
Struct decode_payload(const std::vector<std::uint8_t>& payload,
                      DecodeBody&& body) {
  ByteReader r(payload);
  Struct out = body(r);
  r.require_done();
  return out;
}

}  // namespace

std::uint64_t runtime_fingerprint(const runtime::RuntimeStats& s) {
  audit::Fnv1a64 h;
  // Engine counters the driver alone mutates, at tick boundaries.
  h.i32(s.slots_processed);
  h.i64(s.link_events);
  h.u32(static_cast<std::uint32_t>(s.backends.size()));
  for (const runtime::BackendStats& b : s.backends) {
    h.str(b.name);
    // The committed cost series is the paper's headline output; hash
    // every double's exact bit pattern so one ULP of divergence is loud.
    h.u32(static_cast<std::uint32_t>(b.cost_series.size()));
    for (double c : b.cost_series) h.f64(c);
    h.i64(b.accepted_files);
    h.f64(b.accepted_volume);
    h.i64(b.rejected_files);
    h.f64(b.rejected_volume);
    h.i64(b.delivered_files);
    h.f64(b.delivered_volume);
    h.i64(b.failed_files);
    h.f64(b.failed_volume);
    h.i64(b.replans);
    h.f64(b.replanned_volume);
    h.i32(b.lp_solves);
    h.i64(b.lp_iterations);
    h.i64(b.warm_accepts);
    h.i64(b.cold_starts);
    h.i64(b.resumed_solves);
    h.i64(b.charge_reduce_violations);
    h.i64(b.rung_full);
    h.i64(b.rung_truncated);
    h.i64(b.rung_greedy);
    h.i64(b.carryover_files);
    h.f64(b.carryover_volume);
    h.i64(b.carryover_entered_files);
    h.f64(b.carryover_entered_volume);
    h.i64(b.degraded_slots);
    h.f64(b.degraded_cost_delta);
    h.i64(b.solver_failures);
    h.i64(b.gave_up_files);
    h.f64(b.gave_up_volume);
    h.i64(b.audit_checks);
    // Deliberately excluded: pricing/master/audit seconds, latency
    // histograms (wall clock), last_solver_status (free text), and the
    // ingress counters (submissions race the commit boundary).
  }
  return h.digest();
}

std::vector<std::uint8_t> ReplHello::encode() const { return {}; }

ReplHello ReplHello::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplHello>(payload,
                                   [](ByteReader&) { return ReplHello{}; });
}

std::vector<std::uint8_t> ReplSnapshot::encode() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(image.size()));
  w.raw(image.data(), image.size());
  return w.take();
}

ReplSnapshot ReplSnapshot::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplSnapshot>(payload, [](ByteReader& r) {
    ReplSnapshot s;
    const std::size_t n = r.length(1);
    s.image.reserve(n);
    for (std::size_t i = 0; i < n; ++i) s.image.push_back(r.u8());
    return s;
  });
}

std::vector<std::uint8_t> ReplEvents::encode() const {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const runtime::Event& e : events) server::encode_event(w, e);
  return w.take();
}

ReplEvents ReplEvents::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplEvents>(payload, [](ByteReader& r) {
    ReplEvents out;
    const std::size_t n = r.length(4 + 8 + 1);
    out.events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.events.push_back(server::decode_event(r));
    }
    return out;
  });
}

std::vector<std::uint8_t> ReplCommit::encode() const {
  ByteWriter w;
  w.i32(slot);
  w.u64(fingerprint);
  return w.take();
}

ReplCommit ReplCommit::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplCommit>(payload, [](ByteReader& r) {
    ReplCommit c;
    c.slot = r.i32();
    c.fingerprint = r.u64();
    return c;
  });
}

std::vector<std::uint8_t> ReplHeartbeat::encode() const { return {}; }

ReplHeartbeat ReplHeartbeat::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplHeartbeat>(
      payload, [](ByteReader&) { return ReplHeartbeat{}; });
}

std::vector<std::uint8_t> ReplAck::encode() const {
  ByteWriter w;
  w.i32(slot);
  return w.take();
}

ReplAck ReplAck::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplAck>(payload, [](ByteReader& r) {
    return ReplAck{r.i32()};
  });
}

std::vector<std::uint8_t> ReplReseed::encode() const {
  ByteWriter w;
  w.str(reason);
  return w.take();
}

ReplReseed ReplReseed::decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload<ReplReseed>(payload, [](ByteReader& r) {
    return ReplReseed{r.str()};
  });
}

}  // namespace postcard::replication
