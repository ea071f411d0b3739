// Versioned on-disk snapshot format for ControllerRuntime state.
//
// Layout:
//
//   u32 magic     "PSNP" (0x50534E50)
//   u32 version   kSnapshotVersion — readers reject anything newer;
//                 compatibility rules are spelled out in DESIGN.md §11
//   u64 body_len  bytes of body
//   ...body...    RuntimeSnapshot, serialized with the strict codecs
//   u64 checksum  FNV-1a 64 over magic..body (everything before the trailer)
//
// All scalars little-endian; doubles as IEEE-754 bit patterns, so a
// restored charge ledger carries the exact values the live engine held —
// the basis of the bit-for-bit cost-series guarantee tested in
// tests/server. write_snapshot_file() stages to `<path>.tmp`, fsyncs, then
// atomically renames over the target: a crash or abrupt kill mid-write
// leaves either the previous complete snapshot or a stray .tmp, never a
// torn file. read_snapshot_file() re-verifies magic, version, length and
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
inline constexpr std::uint32_t kSnapshotVersion = 5;

/// FNV-1a 64-bit over a byte range.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n);

/// Serializes a snapshot into the full file image (header + body +
/// checksum trailer).
std::vector<std::uint8_t> encode_snapshot(const runtime::RuntimeSnapshot& snap);

/// Parses and validates a full file image. Throws WireError on a bad
/// magic, unsupported version, length mismatch, checksum mismatch, or any
/// malformed body field.
runtime::RuntimeSnapshot decode_snapshot(const std::vector<std::uint8_t>& bytes);

/// Atomically replaces `path` with the serialized snapshot
/// (write to path.tmp, fsync, rename). Throws WireError on I/O failure.
void write_snapshot_file(const std::string& path,
                         const runtime::RuntimeSnapshot& snap);

/// Reads and validates a snapshot file. Throws WireError when the file is
/// missing, truncated, tampered with, or from an unsupported version.
runtime::RuntimeSnapshot read_snapshot_file(const std::string& path);

}  // namespace postcard::server
