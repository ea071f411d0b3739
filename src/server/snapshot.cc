#include "server/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

#include "audit/fingerprint.h"
#include "server/protocol.h"

namespace postcard::server {

namespace {

// The event codec (EventTag discriminants, encode_event/decode_event)
// moved to protocol.cc so the replication stream shares the exact byte
// layout of the snapshot's pending-event section.

void encode_warm_cache(ByteWriter& w, const core::MasterWarmCache& c) {
  w.boolean(c.valid);
  w.i64(c.captured_solves);
  w.u32(static_cast<std::uint32_t>(c.arc_rows.size()));
  for (const auto& [key, row] : c.arc_rows) {
    w.i32(key.first);
    w.i32(key.second);
    w.i32(row.cap_basic);
    w.i32(row.chg_basic);
    w.u8(static_cast<std::uint8_t>(row.cap_status));
    w.u8(static_cast<std::uint8_t>(row.chg_status));
  }
}

core::MasterWarmCache decode_warm_cache(ByteReader& r) {
  core::MasterWarmCache c;
  c.valid = r.boolean();
  c.captured_solves = r.i64();
  const std::size_t rows = r.length(4 * 4 + 2);
  for (std::size_t i = 0; i < rows; ++i) {
    const int link = r.i32();
    const int slot = r.i32();
    core::MasterWarmCache::ArcRowState row;
    row.cap_basic = r.i32();
    row.chg_basic = r.i32();
    row.cap_status = static_cast<signed char>(r.u8());
    row.chg_status = static_cast<signed char>(r.u8());
    c.arc_rows.emplace(std::make_pair(link, slot), row);
  }
  return c;
}

void encode_series(ByteWriter& w, const std::vector<std::vector<double>>& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const std::vector<double>& link : s) {
    w.u32(static_cast<std::uint32_t>(link.size()));
    for (double v : link) w.f64(v);
  }
}

std::vector<std::vector<double>> decode_series(ByteReader& r) {
  std::vector<std::vector<double>> s;
  const std::size_t links = r.length(4);
  s.reserve(links);
  for (std::size_t l = 0; l < links; ++l) {
    const std::size_t slots = r.length(8);
    std::vector<double> link;
    link.reserve(slots);
    for (std::size_t t = 0; t < slots; ++t) link.push_back(r.f64());
    s.push_back(std::move(link));
  }
  return s;
}

void encode_backend(ByteWriter& w, const runtime::BackendSnapshot& b) {
  w.i32(static_cast<int>(b.kind));
  w.str(b.name);
  encode_series(w, b.series);
  w.i32(b.series_slots);
  w.i64(b.reduce_violations);
  w.u32(static_cast<std::uint32_t>(b.charged.size()));
  for (double c : b.charged) w.f64(c);
  encode_warm_cache(w, b.warm_cache);
  w.u32(static_cast<std::uint32_t>(b.plans.size()));
  for (const runtime::PlanLedgerEntry& p : b.plans) {
    encode_file_request(w, p.request);
    w.i32(p.deadline_slot);
    w.i32(p.last_transfer_slot);
    encode_file_plan(w, p.plan);
  }
  w.u32(static_cast<std::uint32_t>(b.flows.size()));
  for (const runtime::FlowLedgerEntry& f : b.flows) {
    encode_file_request(w, f.request);
    w.i32(f.assignment.file_id);
    w.f64(f.assignment.rate);
    w.i32(f.assignment.start_slot);
    w.i32(f.assignment.duration);
    w.u32(static_cast<std::uint32_t>(f.assignment.link_rates.size()));
    for (const auto& [link, rate] : f.assignment.link_rates) {
      w.i32(link);
      w.f64(rate);
    }
  }
  w.u32(static_cast<std::uint32_t>(b.replan_batch.size()));
  for (const net::FileRequest& f : b.replan_batch) encode_file_request(w, f);
  w.u32(static_cast<std::uint32_t>(b.carry_batch.size()));
  for (const net::FileRequest& f : b.carry_batch) encode_file_request(w, f);
  w.i64(b.injected_stall);
  w.i32(b.injected_fault);
  encode_backend_stats(w, b.stats);
}

runtime::BackendSnapshot decode_backend(ByteReader& r) {
  runtime::BackendSnapshot b;
  const int kind = r.i32();
  if (kind < 0 || kind > 2) {
    throw WireError("invalid backend kind " + std::to_string(kind));
  }
  b.kind = static_cast<runtime::BackendSnapshot::Kind>(kind);
  b.name = r.str();
  b.series = decode_series(r);
  b.series_slots = r.i32();
  b.reduce_violations = r.i64();
  const std::size_t charged = r.length(8);
  b.charged.reserve(charged);
  for (std::size_t i = 0; i < charged; ++i) b.charged.push_back(r.f64());
  b.warm_cache = decode_warm_cache(r);
  const std::size_t plans = r.length(4 * 4 + 8 + 4 + 4 + 4 + 4);
  b.plans.reserve(plans);
  for (std::size_t i = 0; i < plans; ++i) {
    runtime::PlanLedgerEntry p;
    p.request = decode_file_request(r);
    p.deadline_slot = r.i32();
    p.last_transfer_slot = r.i32();
    p.plan = decode_file_plan(r);
    b.plans.push_back(std::move(p));
  }
  const std::size_t flows = r.length(4 * 4 + 8 + 4 + 8 + 4 + 4 + 4);
  b.flows.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    runtime::FlowLedgerEntry f;
    f.request = decode_file_request(r);
    f.assignment.file_id = r.i32();
    f.assignment.rate = r.f64();
    f.assignment.start_slot = r.i32();
    f.assignment.duration = r.i32();
    const std::size_t rates = r.length(4 + 8);
    f.assignment.link_rates.reserve(rates);
    for (std::size_t j = 0; j < rates; ++j) {
      const int link = r.i32();
      const double rate = r.f64();
      f.assignment.link_rates.emplace_back(link, rate);
    }
    b.flows.push_back(std::move(f));
  }
  const std::size_t replans = r.length(4 * 4 + 8);
  b.replan_batch.reserve(replans);
  for (std::size_t i = 0; i < replans; ++i) {
    b.replan_batch.push_back(decode_file_request(r));
  }
  const std::size_t carries = r.length(4 * 4 + 8);
  b.carry_batch.reserve(carries);
  for (std::size_t i = 0; i < carries; ++i) {
    b.carry_batch.push_back(decode_file_request(r));
  }
  b.injected_stall = r.i64();
  b.injected_fault = r.i32();
  b.stats = decode_backend_stats(r);
  return b;
}

void encode_body(ByteWriter& w, const runtime::RuntimeSnapshot& snap) {
  w.i32(snap.num_datacenters);
  w.u32(static_cast<std::uint32_t>(snap.links.size()));
  for (const net::Link& l : snap.links) {
    w.i32(l.from);
    w.i32(l.to);
    w.f64(l.capacity);
    w.f64(l.unit_cost);
  }
  w.u32(static_cast<std::uint32_t>(snap.base_capacity.size()));
  for (double c : snap.base_capacity) w.f64(c);
  w.u32(static_cast<std::uint32_t>(snap.link_down.size()));
  for (bool down : snap.link_down) w.boolean(down);
  w.i32(snap.next_slot);
  w.i32(snap.next_synthetic_id);
  w.i32(snap.slots_processed);
  w.i64(snap.link_events);
  w.i64(snap.solver_stalls);
  w.i64(snap.solver_faults);
  encode_histogram(w, snap.slot_latency);
  encode_histogram(w, snap.solve_latency);
  encode_histogram(w, snap.solve_latency_warm);
  encode_histogram(w, snap.solve_latency_cold);
  w.i64(snap.submitted);
  w.i64(snap.admitted);
  w.i64(snap.ingress_rejected);
  w.f64(snap.ingress_rejected_volume);
  w.u32(static_cast<std::uint32_t>(snap.admitted_ids.size()));
  for (int id : snap.admitted_ids) w.i32(id);
  w.u64(snap.event_seq_watermark);
  w.u32(static_cast<std::uint32_t>(snap.pending_events.size()));
  for (const runtime::Event& e : snap.pending_events) encode_event(w, e);
  w.u32(static_cast<std::uint32_t>(snap.backends.size()));
  for (const runtime::BackendSnapshot& b : snap.backends) encode_backend(w, b);
}

runtime::RuntimeSnapshot decode_body(ByteReader& r) {
  runtime::RuntimeSnapshot snap;
  snap.num_datacenters = r.i32();
  const std::size_t links = r.length(4 + 4 + 8 + 8);
  snap.links.reserve(links);
  for (std::size_t i = 0; i < links; ++i) {
    net::Link l;
    l.from = r.i32();
    l.to = r.i32();
    l.capacity = r.f64();
    l.unit_cost = r.f64();
    snap.links.push_back(l);
  }
  const std::size_t caps = r.length(8);
  snap.base_capacity.reserve(caps);
  for (std::size_t i = 0; i < caps; ++i) snap.base_capacity.push_back(r.f64());
  const std::size_t downs = r.length(1);
  snap.link_down.reserve(downs);
  for (std::size_t i = 0; i < downs; ++i) snap.link_down.push_back(r.boolean());
  snap.next_slot = r.i32();
  snap.next_synthetic_id = r.i32();
  snap.slots_processed = r.i32();
  snap.link_events = r.i64();
  snap.solver_stalls = r.i64();
  snap.solver_faults = r.i64();
  snap.slot_latency = decode_histogram(r);
  snap.solve_latency = decode_histogram(r);
  snap.solve_latency_warm = decode_histogram(r);
  snap.solve_latency_cold = decode_histogram(r);
  snap.submitted = r.i64();
  snap.admitted = r.i64();
  snap.ingress_rejected = r.i64();
  snap.ingress_rejected_volume = r.f64();
  const std::size_t ids = r.length(4);
  snap.admitted_ids.reserve(ids);
  for (std::size_t i = 0; i < ids; ++i) snap.admitted_ids.push_back(r.i32());
  snap.event_seq_watermark = r.u64();
  const std::size_t events = r.length(4 + 8 + 1);
  snap.pending_events.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    snap.pending_events.push_back(decode_event(r));
  }
  const std::size_t backends = r.length(4);
  snap.backends.reserve(backends);
  for (std::size_t i = 0; i < backends; ++i) {
    snap.backends.push_back(decode_backend(r));
  }
  return snap;
}

}  // namespace

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  // Same hash the replication divergence fingerprint uses; one
  // implementation, one set of constants (src/audit/fingerprint.h).
  return audit::fnv1a64(data, n);
}

std::vector<std::uint8_t> encode_snapshot(
    const runtime::RuntimeSnapshot& snap) {
  ByteWriter body;
  encode_body(body, snap);

  ByteWriter file;
  file.u32(kSnapshotMagic);
  file.u32(kSnapshotVersion);
  file.u64(static_cast<std::uint64_t>(body.size()));
  file.raw(body.data().data(), body.size());
  const std::uint64_t checksum = fnv1a64(file.data().data(), file.size());
  file.u64(checksum);
  return file.take();
}

runtime::RuntimeSnapshot decode_snapshot(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) {
    // Distinct from mere truncation: an empty file usually means the
    // snapshot was never written (crash before first byte), not damaged.
    throw WireError("snapshot file is empty");
  }
  if (bytes.size() < 4 + 4 + 8 + 8) {
    throw WireError("snapshot shorter than header + trailer");
  }
  ByteReader header(bytes.data(), bytes.size() - 8);
  const std::uint32_t magic = header.u32();
  if (magic != kSnapshotMagic) {
    throw WireError("bad snapshot magic");
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    throw WireError("unsupported snapshot version " + std::to_string(version));
  }
  const std::uint64_t body_len = header.u64();
  if (body_len != header.remaining()) {
    throw WireError("snapshot body length mismatch: header says " +
                    std::to_string(body_len) + ", file holds " +
                    std::to_string(header.remaining()));
  }
  ByteReader trailer(bytes.data() + bytes.size() - 8, 8);
  const std::uint64_t stored = trailer.u64();
  trailer.require_done();
  const std::uint64_t actual = fnv1a64(bytes.data(), bytes.size() - 8);
  if (stored != actual) {
    throw WireError("snapshot checksum mismatch (file corrupt or tampered)");
  }
  runtime::RuntimeSnapshot snap = decode_body(header);
  header.require_done();
  return snap;
}

void write_snapshot_file(const std::string& path,
                         const runtime::RuntimeSnapshot& snap) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw WireError("cannot create " + tmp + ": errno " +
                    std::to_string(errno));
  }
  try {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t r =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw WireError("write to " + tmp + " failed: errno " +
                        std::to_string(errno));
      }
      written += static_cast<std::size_t>(r);
    }
    if (::fsync(fd) != 0) {
      throw WireError("fsync of " + tmp + " failed: errno " +
                      std::to_string(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw WireError("rename " + tmp + " -> " + path + " failed: errno " +
                    std::to_string(errno));
  }
}

runtime::RuntimeSnapshot read_snapshot_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw WireError("cannot open snapshot " + path + ": errno " +
                    std::to_string(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      bytes.insert(bytes.end(), buf, buf + r);
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    throw WireError("read of snapshot " + path + " failed: errno " +
                    std::to_string(errno));
  }
  ::close(fd);
  return decode_snapshot(bytes);
}

}  // namespace postcard::server
