// Blocking client for the controller protocol.
//
// One synchronous request/reply exchange per call over a single TCP
// connection. Thin by design: tests, the postcard_client example and soak
// drivers all use this same class, so every protocol path the server
// exposes is exercised through real sockets. Not thread-safe — one
// PostcardClient per thread (the soak test opens eight).
#pragma once

#include <string>

#include "server/protocol.h"

namespace postcard::server {

class PostcardClient {
 public:
  /// Connects immediately; throws WireError on failure. With
  /// `io_timeout_ms > 0` every send/recv on the connection carries that
  /// deadline (SO_RCVTIMEO/SO_SNDTIMEO), surfacing as WireTimeout — the
  /// failover client uses this so a dead primary fails a call in bounded
  /// time instead of blocking forever. 0 keeps the historical fully
  /// blocking behavior.
  PostcardClient(const std::string& host, int port, int io_timeout_ms = 0);
  ~PostcardClient();

  PostcardClient(const PostcardClient&) = delete;
  PostcardClient& operator=(const PostcardClient&) = delete;

  /// Submits one file. An admission rejection arrives as a kBackpressure
  /// frame and is surfaced as verdict.admitted == false with the reason —
  /// it does NOT throw; only protocol/transport failures throw WireError.
  SubmitVerdict submit_file(const net::FileRequest& file);

  /// Submits a batch; one verdict per file, in submission order.
  std::vector<SubmitVerdict> submit_batch(
      const std::vector<net::FileRequest>& files);

  /// Committed in-flight plan of `file_id` on `backend`, if any.
  PlanReply query_plan(int backend, int file_id);

  /// Full runtime stats snapshot (server counters included).
  runtime::RuntimeStats query_stats();

  /// Asks the server to snapshot to `path` ("" = its configured path).
  /// Returns the written path; throws WireError when the server reports
  /// failure.
  std::string snapshot(const std::string& path = "");

  /// Ticks the slot clock `slots` times; returns the new current slot.
  int advance(int slots = 1);

  /// Graceful drain: the reply certifies the final snapshot was written
  /// and in-flight work retired.
  void shutdown();

  int fd() const { return fd_; }

 private:
  /// Sends `request` and reads one reply frame, which must be of type
  /// `expect` (kBackpressure is additionally allowed where documented,
  /// and a kError reply is converted into a thrown WireError).
  Frame roundtrip(MessageType request, const std::vector<std::uint8_t>& payload,
                  MessageType expect, bool allow_backpressure = false);

  int fd_ = -1;
};

}  // namespace postcard::server
