// Message bodies of the controller protocol and their payload codecs.
//
// Each request/reply is a plain struct with an encode() into a ByteWriter
// and a decode() from a ByteReader; framing (version, type, length) lives
// in wire.h. Decoders are strict: they bounds-check every read, validate
// declared element counts against the remaining payload, and callers
// finish with ByteReader::require_done() so trailing garbage is rejected
// too. The low-level codecs for shared domain types (FileRequest,
// FilePlan, RuntimeStats, ...) are exposed here because the snapshot file
// format (snapshot.h) serializes the same types.
#pragma once

#include <string>
#include <vector>

#include "core/plan.h"
#include "net/file_request.h"
#include "runtime/event.h"
#include "runtime/stats.h"
#include "server/wire.h"

namespace postcard::server {

// --- Shared domain-type codecs ------------------------------------------

void encode_file_request(ByteWriter& w, const net::FileRequest& f);
net::FileRequest decode_file_request(ByteReader& r);

void encode_file_plan(ByteWriter& w, const core::FilePlan& p);
core::FilePlan decode_file_plan(ByteReader& r);

void encode_histogram(ByteWriter& w, const runtime::LatencyHistogram& h);
runtime::LatencyHistogram decode_histogram(ByteReader& r);

void encode_backend_stats(ByteWriter& w, const runtime::BackendStats& s);
runtime::BackendStats decode_backend_stats(ByteReader& r);

/// Full-fidelity RuntimeStats codec: every field of the lists in
/// runtime/stats.h, in list order — RuntimeStats' own fields, the server
/// counters, then each backend. Used by both the StatsReply frame and
/// `--metrics-dump`.
void encode_runtime_stats(ByteWriter& w, const runtime::RuntimeStats& s);
runtime::RuntimeStats decode_runtime_stats(ByteReader& r);

/// The same layout with the telemetry fields left out: the bytes the
/// replication divergence fingerprint hashes.
void encode_deterministic_stats(ByteWriter& w, const runtime::RuntimeStats& s);

/// Runtime-event codec, shared by the snapshot pending-event section and
/// the replication kReplEvents stream — one byte layout, so an event round
/// trips identically whether it travels in a PSNP file or on the wire.
void encode_event(ByteWriter& w, const runtime::Event& e);
runtime::Event decode_event(ByteReader& r);

// --- Requests ------------------------------------------------------------

struct SubmitFileRequest {
  net::FileRequest file;
  std::vector<std::uint8_t> encode() const;
  static SubmitFileRequest decode(const std::vector<std::uint8_t>& payload);
};

struct SubmitBatchRequest {
  std::vector<net::FileRequest> files;
  std::vector<std::uint8_t> encode() const;
  static SubmitBatchRequest decode(const std::vector<std::uint8_t>& payload);
};

struct QueryPlanRequest {
  int backend = 0;
  int file_id = 0;
  std::vector<std::uint8_t> encode() const;
  static QueryPlanRequest decode(const std::vector<std::uint8_t>& payload);
};

/// QueryStats and Shutdown carry empty payloads.

struct SnapshotRequest {
  std::string path;  // empty: use the server's configured snapshot path
  std::vector<std::uint8_t> encode() const;
  static SnapshotRequest decode(const std::vector<std::uint8_t>& payload);
};

struct AdvanceSlotRequest {
  int slots = 1;
  std::vector<std::uint8_t> encode() const;
  static AdvanceSlotRequest decode(const std::vector<std::uint8_t>& payload);
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
};

struct SubmitReply {
  SubmitVerdict verdict;
  std::vector<std::uint8_t> encode() const;
  static SubmitReply decode(const std::vector<std::uint8_t>& payload);
};

struct BatchReply {
  std::vector<SubmitVerdict> verdicts;
  std::vector<std::uint8_t> encode() const;
  static BatchReply decode(const std::vector<std::uint8_t>& payload);
};

struct PlanReply {
  bool found = false;
  net::FileRequest request;
  core::FilePlan plan;
  std::vector<std::uint8_t> encode() const;
  static PlanReply decode(const std::vector<std::uint8_t>& payload);
};

struct StatsReply {
  runtime::RuntimeStats stats;
  std::vector<std::uint8_t> encode() const;
  static StatsReply decode(const std::vector<std::uint8_t>& payload);
};

struct SnapshotReply {
  bool ok = false;
  std::string message;  // written path, or the failure reason
  std::vector<std::uint8_t> encode() const;
  static SnapshotReply decode(const std::vector<std::uint8_t>& payload);
};

struct AdvanceReply {
  int next_slot = 0;  // slot clock after the ticks
  std::vector<std::uint8_t> encode() const;
  static AdvanceReply decode(const std::vector<std::uint8_t>& payload);
};

struct ErrorReply {
  std::string message;
  std::vector<std::uint8_t> encode() const;
  static ErrorReply decode(const std::vector<std::uint8_t>& payload);
};

}  // namespace postcard::server
