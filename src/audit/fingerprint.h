// FNV-1a 64-bit hashing, shared by every integrity check in the tree.
//
// The snapshot file trailer (src/server/snapshot.cc) and the replication
// divergence fingerprint (src/replication) both need the same tiny,
// dependency-free hash; it lives here in src/audit because the auditor is
// the lowest layer concerned with state integrity and links nothing above
// postcard_net/postcard_charging. Both hash bytes that the wire codec
// wrote (little-endian integers, doubles as IEEE-754 bit patterns,
// length-prefixed strings), so two states that encode to the same bytes
// produce the same digest and a mismatch pinpoints real divergence, never
// encoding noise.
#pragma once

#include <cstddef>
#include <cstdint>

namespace postcard::audit {

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// One-shot FNV-1a 64 over a byte range.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n);

}  // namespace postcard::audit
