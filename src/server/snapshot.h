// Versioned on-disk snapshot format for ControllerRuntime state.
//
// Layout:
//
//   u32 magic     "PSNP" (0x50534E50)
//   u32 version   kSnapshotVersion — readers reject every other version,
//                 newer or older (DESIGN.md §11)
//   u64 body_len  bytes of body
//   ...body...    RuntimeSnapshot, serialized with the strict codecs
//   u64 checksum  FNV-1a 64 over magic..body (everything before the trailer)
//
// All scalars little-endian; doubles as IEEE-754 bit patterns, so a
// restored charge ledger carries the exact values the live engine held —
// the basis of the bit-for-bit cost-series guarantee tested in
// tests/server. write_snapshot_file() stages to `<path>.tmp`, fsyncs, then
// atomically renames over the target and fsyncs the parent directory: a
// crash or abrupt kill mid-write leaves either the previous complete
// snapshot or a stray .tmp, never a torn file, and a power loss after the
// call returns cannot undo the rename. read_snapshot_file() re-verifies magic, version, length and
// checksum and throws WireError on any mismatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/snapshot_state.h"
#include "server/wire.h"

namespace postcard::server {

inline constexpr std::uint32_t kSnapshotMagic = 0x50534E50;  // "PSNP"
// v4: idempotent-submission dedup ids + event-seq watermark (replication).
// v5: split-batch solving removed — no per-group warm caches, and the
// embedded BackendStats lost its conflict re-solve counter.
// v6: the warm cache is its one flag (no per-arc basis rows), and the
// embedded BackendStats lost its dual-warm-start counters.
// v7: no warm-cache flag, no warm/cold solve-latency histograms, and the
// embedded BackendStats lost its DCRoute rung counter.
// v8: the embedded BackendStats lost its audit report lines.
// v9: every backend is a Postcard controller, so a backend section lost
// its kind tag and its flow-baseline ledger count (8 bytes per backend).
// v10: a backend section lost its running maxima X_ij, a u32 count and
// 8 bytes per link (4 + 8L bytes): restore derives each from its series.
// v11: the body opens with the RuntimeOptions that produced it (10
// bytes), and a backend section holds its PostcardOptions (14 bytes) in
// place of its name (4 + length bytes; the name stays in the stats).
// v12: no solver stall/fault counters (16 bytes) and no armed per-backend
// stall/fault overrides (12 bytes per backend); tags 5 and 6 are refused.
inline constexpr std::uint32_t kSnapshotVersion = 12;

/// Serializes a snapshot into the full file image (header + body +
/// checksum trailer).
std::vector<std::uint8_t> encode_snapshot(const runtime::RuntimeSnapshot& snap);

/// Parses and validates a full file image. Throws WireError on a bad
/// magic, unsupported version, length mismatch, checksum mismatch, or any
/// malformed body field — an unknown audit mode or a cg_relative_gap that
/// is NaN, infinite or negative included.
runtime::RuntimeSnapshot decode_snapshot(const std::vector<std::uint8_t>& bytes);

/// Atomically and durably replaces `path` with the serialized snapshot
/// (write to path.tmp, fsync, rename, fsync the directory). Throws
/// WireError on I/O failure.
void write_snapshot_file(const std::string& path,
                         const runtime::RuntimeSnapshot& snap);

/// Reads and validates a snapshot file. Throws WireError when the file is
/// missing, truncated, tampered with, or from an unsupported version.
runtime::RuntimeSnapshot read_snapshot_file(const std::string& path);

}  // namespace postcard::server
