#include "server/protocol.h"

#include <array>
#include <cmath>

namespace postcard::server {

namespace {

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

constexpr EventTag tag_of(const runtime::LinkDown&) {
  return EventTag::kLinkDown;
}
constexpr EventTag tag_of(const runtime::LinkUp&) { return EventTag::kLinkUp; }
constexpr EventTag tag_of(const runtime::CapacityChange&) {
  return EventTag::kCapacityChange;
}
constexpr EventTag tag_of(const runtime::FileArrival&) {
  return EventTag::kFileArrival;
}

}  // namespace

void put(ByteWriter& w, const runtime::LatencyHistogram& h) {
  for (std::int64_t b : h.buckets()) w.i64(b);
  w.i64(h.count());
  w.f64(h.total_seconds());
  w.f64(h.max_seconds());
}

void get(ByteReader& r, runtime::LatencyHistogram& h) {
  std::array<std::int64_t, runtime::LatencyHistogram::kBuckets> buckets{};
  for (std::int64_t& b : buckets) b = r.i64();
  const std::int64_t count = r.i64();
  const double total = r.f64();
  const double max = r.f64();
  h = runtime::LatencyHistogram::restore(buckets, count, total, max);
}

void put(ByteWriter& w, const runtime::EventPayload& p) {
  std::visit(
      [&](const auto& payload) {
        w.u8(static_cast<std::uint8_t>(tag_of(payload)));
        put(w, payload);
      },
      p);
}

void get(ByteReader& r, runtime::EventPayload& p) {
  const std::uint8_t tag = r.u8();
  switch (static_cast<EventTag>(tag)) {
    case EventTag::kLinkDown:
      return get(r, p.emplace<runtime::LinkDown>());
    case EventTag::kLinkUp:
      return get(r, p.emplace<runtime::LinkUp>());
    case EventTag::kCapacityChange:
      return get(r, p.emplace<runtime::CapacityChange>());
    case EventTag::kFileArrival:
      return get(r, p.emplace<runtime::FileArrival>());
  }
  throw WireError("unknown event tag " + std::to_string(tag));
}

void put(ByteWriter& w, const sim::AuditControls& a) {
  w.u8(static_cast<std::uint8_t>(a.mode));
}

void get(ByteReader& r, sim::AuditControls& a) {
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(sim::AuditControls::Mode::kFailFast)) {
    throw WireError("unknown audit mode " + std::to_string(mode));
  }
  a.mode = static_cast<sim::AuditControls::Mode>(mode);
}

void get(ByteReader& r, core::PostcardOptions& o) {
  get<core::PostcardOptions>(r, o);  // the listed walk, not this overload
  if (!std::isfinite(o.cg_relative_gap) || o.cg_relative_gap < 0.0) {
    throw WireError("cg_relative_gap " + std::to_string(o.cg_relative_gap) +
                    " is not finite and non-negative");
  }
}

}  // namespace postcard::server
