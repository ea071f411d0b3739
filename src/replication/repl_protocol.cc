#include "replication/repl_protocol.h"

#include "audit/fingerprint.h"

namespace postcard::replication {

std::uint64_t runtime_fingerprint(const runtime::RuntimeStats& s) {
  server::ByteWriter w;
  server::put(w, s, server::Fields::kDeterministic);
  return audit::fnv1a64(w.data().data(), w.size());
}

}  // namespace postcard::replication
