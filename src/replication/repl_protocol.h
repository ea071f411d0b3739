// Replication channel messages and the divergence fingerprint.
//
// A primary controller streams its committed event log to a standby over
// the same length-prefixed framing as the client protocol (wire.h), using
// the kRepl* message types (100+). The conversation (DESIGN.md §14):
//
//   standby  -> primary : ReplHello      (introduce; last committed slot)
//   primary  -> standby : ReplSnapshot   (full PSNP image; bootstrap/reseed)
//   primary  -> standby : ReplEvents     (ordered queue pushes since last)
//   primary  -> standby : ReplCommit     (slot tick done + fingerprint)
//   primary  -> standby : ReplHeartbeat  (liveness between commits)
//   standby  -> primary : ReplAck        (applied commit; own fingerprint)
//   standby  -> primary : ReplReseed     (diverged or gapped; ship snapshot)
//
// The fingerprint is FNV-1a 64 (audit/fingerprint.h) over the committed
// cost series and backend counters — exactly the state deterministic
// replay must reproduce. It deliberately EXCLUDES wall-clock timings
// (pricing/master/audit seconds, latency histograms) and ingress counters
// (submissions race the commit boundary on a live primary), so a digest
// mismatch always means real divergence, never timing noise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/stats.h"
#include "server/protocol.h"

namespace postcard::replication {

/// Replication frames carry whole snapshots, which outgrow the client
/// protocol's 16 MB default frame cap on large topologies.
inline constexpr std::size_t kReplMaxFrameBytes = std::size_t{1} << 26;

/// Deterministic digest of driver-committed state. Two runtimes that
/// replayed the same event prefix without a wall-clock slot deadline
/// produce the same value; any divergence in a cost series, admission
/// outcome, or ladder decision flips it.
std::uint64_t runtime_fingerprint(const runtime::RuntimeStats& s);

struct ReplHello {
  int last_commit_slot = -1;  // -1: never seeded, ship a snapshot first
  std::vector<std::uint8_t> encode() const;
  static ReplHello decode(const std::vector<std::uint8_t>& payload);
};

struct ReplSnapshot {
  std::vector<std::uint8_t> image;  // complete PSNP file bytes (snapshot.h)
  std::vector<std::uint8_t> encode() const;
  static ReplSnapshot decode(const std::vector<std::uint8_t>& payload);
};

struct ReplEvents {
  std::vector<runtime::Event> events;  // primary queue-push order
  std::vector<std::uint8_t> encode() const;
  static ReplEvents decode(const std::vector<std::uint8_t>& payload);
};

struct ReplCommit {
  int slot = 0;                   // slot whose tick just committed
  std::uint64_t fingerprint = 0;  // primary's post-tick digest
  std::vector<std::uint8_t> encode() const;
  static ReplCommit decode(const std::vector<std::uint8_t>& payload);
};

struct ReplHeartbeat {
  int next_slot = 0;  // primary's slot clock, for observability
  std::vector<std::uint8_t> encode() const;
  static ReplHeartbeat decode(const std::vector<std::uint8_t>& payload);
};

struct ReplAck {
  int slot = 0;
  std::uint64_t fingerprint = 0;  // standby's post-replay digest
  std::vector<std::uint8_t> encode() const;
  static ReplAck decode(const std::vector<std::uint8_t>& payload);
};

struct ReplReseed {
  std::string reason;
  std::vector<std::uint8_t> encode() const;
  static ReplReseed decode(const std::vector<std::uint8_t>& payload);
};

}  // namespace postcard::replication
