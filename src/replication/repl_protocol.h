// Replication channel messages and the divergence fingerprint.
//
// A primary controller streams its committed event log to a standby over
// the same length-prefixed framing as the client protocol (wire.h), using
// the kRepl* message types (100+). The conversation (DESIGN.md §14):
//
//   standby  -> primary : ReplHello      (introduce; every Hello is seeded)
//   primary  -> standby : ReplSnapshot   (full PSNP image; bootstrap/reseed)
//   primary  -> standby : ReplEvents     (ordered queue pushes since last)
//   primary  -> standby : ReplCommit     (slot tick done + fingerprint)
//   primary  -> standby : ReplHeartbeat  (liveness between commits)
//   standby  -> primary : ReplAck        (applied commit)
//   standby  -> primary : ReplReseed     (diverged or gapped; ship snapshot)
//
// The fingerprint is FNV-1a 64 (audit/fingerprint.h) over the stats
// fields runtime/stats.h tags deterministic — the committed cost series and
// backend counters, exactly the state deterministic replay must reproduce
// — in their wire encoding. The fields tagged telemetry (wall-clock
// seconds, latency histograms, the last solver status, and the ingress,
// queue-depth and server counters that race the commit boundary on a live
// primary) stay out, so a digest mismatch always means real divergence,
// never timing noise.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/stats.h"
#include "server/protocol.h"

namespace postcard::replication {

/// Replication frames carry whole snapshots, which outgrow the client
/// protocol's 16 MB default frame cap on large topologies.
inline constexpr std::size_t kReplMaxFrameBytes = std::size_t{1} << 26;

/// Deterministic digest of driver-committed state. Two runtimes that
/// share RuntimeOptions and replayed the same event prefix produce the
/// same value; any divergence in a cost series, admission outcome, or
/// ladder decision flips it.
std::uint64_t runtime_fingerprint(const runtime::RuntimeStats& s);

/// Empty payload: the primary seeds every standby that says hello.
struct ReplHello {
  friend constexpr auto wire_fields(const ReplHello*) { return std::tuple{}; }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplHello decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplHello>(payload);
  }
};

struct ReplSnapshot {
  std::vector<std::uint8_t> image;  // complete PSNP file bytes (snapshot.h)
  friend constexpr auto wire_fields(const ReplSnapshot*) {
    return std::tuple{&ReplSnapshot::image};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplSnapshot decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplSnapshot>(payload);
  }
};

struct ReplEvents {
  std::vector<runtime::Event> events;  // primary queue-push order
  friend constexpr auto wire_fields(const ReplEvents*) {
    return std::tuple{&ReplEvents::events};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplEvents decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplEvents>(payload);
  }
};

struct ReplCommit {
  int slot = 0;                   // slot whose tick just committed
  std::uint64_t fingerprint = 0;  // primary's post-tick digest
  friend constexpr auto wire_fields(const ReplCommit*) {
    return std::tuple{&ReplCommit::slot, &ReplCommit::fingerprint};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplCommit decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplCommit>(payload);
  }
};

/// Empty payload: the standby reads a heartbeat as liveness only.
struct ReplHeartbeat {
  friend constexpr auto wire_fields(const ReplHeartbeat*) {
    return std::tuple{};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplHeartbeat decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplHeartbeat>(payload);
  }
};

struct ReplAck {
  int slot = 0;  // the commit whose fingerprint the mirror reproduced
  friend constexpr auto wire_fields(const ReplAck*) {
    return std::tuple{&ReplAck::slot};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplAck decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplAck>(payload);
  }
};

struct ReplReseed {
  std::string reason;
  friend constexpr auto wire_fields(const ReplReseed*) {
    return std::tuple{&ReplReseed::reason};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ReplReseed decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ReplReseed>(payload);
  }
};

}  // namespace postcard::replication
