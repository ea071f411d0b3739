// Message bodies of the controller protocol, and the one codec that encodes
// them, the replication messages (replication/repl_protocol.h) and the
// snapshot sections (runtime/snapshot_state.h).
//
// Every struct that crosses the wire or lands in a snapshot lists its
// members once, in wire order: `wire_fields(const T*)` returns them as a
// tuple. The structs this codec owns list theirs as a hidden friend next to
// their members; the domain types other layers declare (net::FileRequest,
// core::FilePlan, the stats, ...) are listed below. One generic codec walks
// the lists: put() writes a value and get() reads one, a vector is a u32
// count and its elements, and a byte image is its count and one copy.
// decode<T> bounds every element count through ByteReader::length with the
// exact minimum size the element's list implies, so a lying count is
// refused at the count, and it ends in require_done, so trailing bytes are
// refused too. Hand-written, and nothing else: the scalars,
// LatencyHistogram's private state, the event variant's tag byte, the
// audit-mode range check and the cg_relative_gap check (DESIGN.md §11).
// Framing (version, type, length) lives in wire.h.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/plan.h"
#include "core/postcard.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "runtime/event.h"
#include "runtime/options.h"
#include "runtime/stats.h"
#include "server/wire.h"

namespace postcard::server {

// --- Hand-written layouts ------------------------------------------------

/// Which fields a walk writes: every one, or only those the stats lists tag
/// deterministic, the bytes the replication fingerprint hashes. Only the
/// walk over a list reads it; a plain member of a list is always written.
enum class Fields { kAll, kDeterministic };

inline void put(ByteWriter& w, int v) { w.i32(v); }
inline void put(ByteWriter& w, long v) { w.i64(v); }
inline void put(ByteWriter& w, std::uint64_t v) { w.u64(v); }
inline void put(ByteWriter& w, double v) { w.f64(v); }
inline void put(ByteWriter& w, bool v) { w.boolean(v); }
inline void put(ByteWriter& w, const std::string& v) { w.str(v); }
void put(ByteWriter& w, const runtime::LatencyHistogram& h);
void put(ByteWriter& w, const runtime::EventPayload& p);
void put(ByteWriter& w, const sim::AuditControls& a);

inline void get(ByteReader& r, int& v) { v = r.i32(); }
inline void get(ByteReader& r, long& v) { v = r.i64(); }
inline void get(ByteReader& r, std::uint64_t& v) { v = r.u64(); }
inline void get(ByteReader& r, double& v) { v = r.f64(); }
inline void get(ByteReader& r, bool& v) { v = r.boolean(); }
inline void get(ByteReader& r, std::string& v) { v = r.str(); }
void get(ByteReader& r, runtime::LatencyHistogram& h);
/// Throws WireError on a tag no payload kind holds.
void get(ByteReader& r, runtime::EventPayload& p);
/// Throws WireError on a mode the runtime does not know.
void get(ByteReader& r, sim::AuditControls& a);
/// The listed fields, then a WireError unless cg_relative_gap is finite and
/// non-negative: the controller refuses such a gap, and restore compares
/// gaps with ==, which a NaN never satisfies.
void get(ByteReader& r, core::PostcardOptions& o);

// --- Field lists of the domain types other layers declare ---------------

constexpr auto wire_fields(const net::FileRequest*) {
  using F = net::FileRequest;
  return std::tuple{&F::id,   &F::source,             &F::destination,
                    &F::size, &F::max_transfer_slots, &F::release_slot};
}

constexpr auto wire_fields(const net::Link*) {
  using L = net::Link;
  return std::tuple{&L::from, &L::to, &L::capacity, &L::unit_cost};
}

constexpr auto wire_fields(const core::Transfer*) {
  using T = core::Transfer;
  return std::tuple{&T::slot, &T::from, &T::to, &T::volume, &T::link};
}

constexpr auto wire_fields(const core::FilePlan*) {
  return std::tuple{&core::FilePlan::file_id, &core::FilePlan::transfers};
}

constexpr auto wire_fields(const core::PostcardOptions*) {
  using O = core::PostcardOptions;
  return std::tuple{&O::allow_storage, &O::cg_relative_gap,
                    &O::cg_stall_rounds, &O::prune_pricing};
}

constexpr auto wire_fields(const runtime::RuntimeOptions*) {
  using O = runtime::RuntimeOptions;
  return std::tuple{&O::slot_pivot_budget, &O::audit, &O::dedup_submissions};
}

constexpr auto wire_fields(const runtime::Event*) {
  using E = runtime::Event;
  return std::tuple{&E::slot, &E::seq, &E::payload};
}

constexpr auto wire_fields(const runtime::LinkDown*) {
  return std::tuple{&runtime::LinkDown::link};
}

constexpr auto wire_fields(const runtime::LinkUp*) {
  return std::tuple{&runtime::LinkUp::link};
}

constexpr auto wire_fields(const runtime::CapacityChange*) {
  using C = runtime::CapacityChange;
  return std::tuple{&C::link, &C::capacity};
}

constexpr auto wire_fields(const runtime::FileArrival*) {
  return std::tuple{&runtime::FileArrival::file};
}

/// The stats lists of runtime/stats.h. RuntimeStats' own fields come first,
/// then the server counters and the backends, each through its own list.
constexpr auto wire_fields(const runtime::ServerCounters*) {
  return runtime::kServerFields;
}

constexpr auto wire_fields(const runtime::BackendStats*) {
  return runtime::kBackendFields;
}

constexpr auto wire_fields(const runtime::RuntimeStats*) {
  using S = runtime::RuntimeStats;
  return std::tuple_cat(runtime::kRuntimeFields,
                        std::tuple{&S::server, &S::backends});
}

// --- The generic codec ---------------------------------------------------

/// A struct with a field list.
template <typename T>
concept Listed = requires(const T* p) { wire_fields(p); };

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// A list entry is a member pointer, or a runtime::StatsField that names
/// one and tags it deterministic or telemetry.
template <typename Member>
constexpr Member member_of(Member member) {
  return member;
}
template <typename Member>
constexpr Member member_of(const runtime::StatsField<Member>& field) {
  return field.member;
}
template <typename Member>
constexpr bool is_telemetry(const Member&) {
  return false;
}
template <typename Member>
constexpr bool is_telemetry(const runtime::StatsField<Member>& field) {
  return field.kind == runtime::FieldKind::kTelemetry;
}

/// The fewest bytes any value of T encodes to. ByteReader::length refuses
/// an element count the rest of the payload cannot hold at this size.
template <typename T>
constexpr std::size_t min_bytes() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);  // bool 1, int 4, long, std::uint64_t and double 8
  } else if constexpr (std::is_same_v<T, std::string> || IsVector<T>::value) {
    return 4;  // the count of an empty one
  } else if constexpr (std::is_same_v<T, runtime::LatencyHistogram>) {
    return 8 * (runtime::LatencyHistogram::kBuckets + 3);
  } else if constexpr (std::is_same_v<T, sim::AuditControls>) {
    return 1;
  } else if constexpr (std::is_same_v<T, runtime::EventPayload>) {
    // The tag byte and the smallest payload kind.
    return []<typename... Kind>(std::variant<Kind...>*) {
      return 1 + std::min({min_bytes<Kind>()...});
    }(static_cast<runtime::EventPayload*>(nullptr));
  } else {
    return std::apply(
        [](auto... field) {
          return (std::size_t{0} + ... +
                  min_bytes<std::remove_cvref_t<
                      decltype(std::declval<const T&>().*member_of(field))>>());
        },
        wire_fields(static_cast<const T*>(nullptr)));
  }
}

template <typename T>
void put(ByteWriter& w, const std::vector<T>& v, Fields which = Fields::kAll);
template <Listed T>
void put(ByteWriter& w, const T& v, Fields which = Fields::kAll);
template <typename T>
void get(ByteReader& r, std::vector<T>& v);
template <Listed T>
void get(ByteReader& r, T& v);

/// Writes one value, carrying `which` into the lists it holds.
template <typename T>
void put_value(ByteWriter& w, const T& v, Fields which) {
  if constexpr (Listed<T> || IsVector<T>::value) {
    put(w, v, which);
  } else {
    put(w, v);
  }
}

template <typename T>
void put(ByteWriter& w, const std::vector<T>& v, Fields which) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.raw(v.data(), v.size());  // a byte image: one copy
  } else {
    for (const T& e : v) put_value(w, e, which);
  }
}

template <Listed T>
void put(ByteWriter& w, const T& v, Fields which) {
  runtime::for_each_field(wire_fields(&v), [&](const auto& field) {
    if (which == Fields::kAll || !is_telemetry(field)) {
      put_value(w, v.*member_of(field), which);
    }
  });
}

template <typename T>
void get(ByteReader& r, std::vector<T>& v) {
  const std::size_t n = r.length(min_bytes<T>());
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    const std::uint8_t* bytes = r.raw(n);
    v.assign(bytes, bytes + n);
  } else {
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      T e{};
      get(r, e);
      v.push_back(std::move(e));
    }
  }
}

template <Listed T>
void get(ByteReader& r, T& v) {
  runtime::for_each_field(wire_fields(&v), [&](const auto& field) {
    get(r, v.*member_of(field));
  });
}

template <typename T>
std::vector<std::uint8_t> encode(const T& value) {
  ByteWriter w;
  put(w, value);
  return w.take();
}

/// Decodes one whole payload; throws WireError on a truncated payload, a
/// lying element count, a malformed field or trailing bytes.
template <typename T>
T decode(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  T value;
  get(r, value);
  r.require_done();
  return value;
}

// --- Requests ------------------------------------------------------------

struct SubmitFileRequest {
  net::FileRequest file;
  friend constexpr auto wire_fields(const SubmitFileRequest*) {
    return std::tuple{&SubmitFileRequest::file};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static SubmitFileRequest decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<SubmitFileRequest>(payload);
  }
};

struct SubmitBatchRequest {
  std::vector<net::FileRequest> files;
  friend constexpr auto wire_fields(const SubmitBatchRequest*) {
    return std::tuple{&SubmitBatchRequest::files};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static SubmitBatchRequest decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<SubmitBatchRequest>(payload);
  }
};

struct QueryPlanRequest {
  int backend = 0;
  int file_id = 0;
  friend constexpr auto wire_fields(const QueryPlanRequest*) {
    return std::tuple{&QueryPlanRequest::backend, &QueryPlanRequest::file_id};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static QueryPlanRequest decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<QueryPlanRequest>(payload);
  }
};

/// QueryStats and Shutdown carry empty payloads.

struct SnapshotRequest {
  std::string path;  // empty: use the server's configured snapshot path
  friend constexpr auto wire_fields(const SnapshotRequest*) {
    return std::tuple{&SnapshotRequest::path};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static SnapshotRequest decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<SnapshotRequest>(payload);
  }
};

struct AdvanceSlotRequest {
  int slots = 1;
  friend constexpr auto wire_fields(const AdvanceSlotRequest*) {
    return std::tuple{&AdvanceSlotRequest::slots};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static AdvanceSlotRequest decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<AdvanceSlotRequest>(payload);
  }
};

// --- Replies -------------------------------------------------------------

/// Verdict for one submitted file. When `admitted` is false the same body
/// travels as a kBackpressure frame (single submit) or a BatchReply entry,
/// with the admission controller's reason — backpressure is an explicit
/// answer, never a dropped connection.
struct SubmitVerdict {
  bool admitted = false;
  int slot = 0;  // release slot the file was scheduled into, if admitted
  std::string reason;
  // Dedup hit (RuntimeOptions::dedup_submissions): the id was already
  // admitted, nothing was re-enqueued. admitted stays true so a retrying
  // client treats the resubmission as success.
  bool duplicate = false;
  friend constexpr auto wire_fields(const SubmitVerdict*) {
    using V = SubmitVerdict;
    return std::tuple{&V::admitted, &V::slot, &V::reason, &V::duplicate};
  }
};

struct SubmitReply {
  SubmitVerdict verdict;
  friend constexpr auto wire_fields(const SubmitReply*) {
    return std::tuple{&SubmitReply::verdict};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static SubmitReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<SubmitReply>(payload);
  }
};

struct BatchReply {
  std::vector<SubmitVerdict> verdicts;
  friend constexpr auto wire_fields(const BatchReply*) {
    return std::tuple{&BatchReply::verdicts};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static BatchReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<BatchReply>(payload);
  }
};

struct PlanReply {
  bool found = false;
  net::FileRequest request;
  core::FilePlan plan;
  friend constexpr auto wire_fields(const PlanReply*) {
    return std::tuple{&PlanReply::found, &PlanReply::request, &PlanReply::plan};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static PlanReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<PlanReply>(payload);
  }
};

/// Every field of the stats lists in runtime/stats.h, in list order.
struct StatsReply {
  runtime::RuntimeStats stats;
  friend constexpr auto wire_fields(const StatsReply*) {
    return std::tuple{&StatsReply::stats};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static StatsReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<StatsReply>(payload);
  }
};

struct SnapshotReply {
  bool ok = false;
  std::string message;  // written path, or the failure reason
  friend constexpr auto wire_fields(const SnapshotReply*) {
    return std::tuple{&SnapshotReply::ok, &SnapshotReply::message};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static SnapshotReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<SnapshotReply>(payload);
  }
};

struct AdvanceReply {
  int next_slot = 0;  // slot clock after the ticks
  friend constexpr auto wire_fields(const AdvanceReply*) {
    return std::tuple{&AdvanceReply::next_slot};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static AdvanceReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<AdvanceReply>(payload);
  }
};

struct ErrorReply {
  std::string message;
  friend constexpr auto wire_fields(const ErrorReply*) {
    return std::tuple{&ErrorReply::message};
  }
  std::vector<std::uint8_t> encode() const { return server::encode(*this); }
  static ErrorReply decode(const std::vector<std::uint8_t>& payload) {
    return server::decode<ErrorReply>(payload);
  }
};

}  // namespace postcard::server
