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
  ByteWriter w;
  server::encode_deterministic_stats(w, s);
  return audit::fnv1a64(w.data().data(), w.size());
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
