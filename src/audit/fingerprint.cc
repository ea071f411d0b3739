#include "audit/fingerprint.h"

namespace postcard::audit {

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t hash = kFnv1a64Offset;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= data[i];
    hash *= kFnv1a64Prime;
  }
  return hash;
}

}  // namespace postcard::audit
