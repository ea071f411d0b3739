#include "server/client.h"

#include <sys/socket.h>
#include <unistd.h>

namespace postcard::server {

PostcardClient::PostcardClient(const std::string& host, int port,
                               int io_timeout_ms)
    : fd_(connect_tcp(host, port, io_timeout_ms)) {
  set_socket_timeout(fd_, SO_SNDTIMEO, io_timeout_ms);
}

PostcardClient::~PostcardClient() {
  if (fd_ >= 0) ::close(fd_);
}

Frame PostcardClient::roundtrip(MessageType request,
                                const std::vector<std::uint8_t>& payload,
                                MessageType expect, bool allow_backpressure) {
  write_frame(fd_, request, payload);
  Frame reply;
  if (!read_frame(fd_, &reply, kDefaultMaxFrameBytes)) {
    throw WireError("server closed the connection before replying");
  }
  if (reply.type == MessageType::kError) {
    const ErrorReply err = ErrorReply::decode(reply.payload);
    throw WireError("server error: " + err.message);
  }
  if (reply.type != expect &&
      !(allow_backpressure && reply.type == MessageType::kBackpressure)) {
    throw WireError("unexpected reply type " +
                    std::to_string(static_cast<int>(reply.type)));
  }
  return reply;
}

SubmitVerdict PostcardClient::submit_file(const net::FileRequest& file) {
  SubmitFileRequest req;
  req.file = file;
  const Frame reply =
      roundtrip(MessageType::kSubmitFile, req.encode(),
                MessageType::kSubmitReply, /*allow_backpressure=*/true);
  return SubmitReply::decode(reply.payload).verdict;
}

std::vector<SubmitVerdict> PostcardClient::submit_batch(
    const std::vector<net::FileRequest>& files) {
  SubmitBatchRequest req;
  req.files = files;
  const Frame reply = roundtrip(MessageType::kSubmitBatch, req.encode(),
                                MessageType::kBatchReply);
  return BatchReply::decode(reply.payload).verdicts;
}

PlanReply PostcardClient::query_plan(int backend, int file_id) {
  QueryPlanRequest req;
  req.backend = backend;
  req.file_id = file_id;
  const Frame reply = roundtrip(MessageType::kQueryPlan, req.encode(),
                                MessageType::kPlanReply);
  return PlanReply::decode(reply.payload);
}

runtime::RuntimeStats PostcardClient::query_stats() {
  const Frame reply =
      roundtrip(MessageType::kQueryStats, {}, MessageType::kStatsReply);
  return StatsReply::decode(reply.payload).stats;
}

std::string PostcardClient::snapshot(const std::string& path) {
  SnapshotRequest req;
  req.path = path;
  const Frame reply = roundtrip(MessageType::kSnapshot, req.encode(),
                                MessageType::kSnapshotReply);
  const SnapshotReply out = SnapshotReply::decode(reply.payload);
  if (!out.ok) throw WireError("snapshot failed: " + out.message);
  return out.message;
}

int PostcardClient::advance(int slots) {
  AdvanceSlotRequest req;
  req.slots = slots;
  const Frame reply = roundtrip(MessageType::kAdvanceSlot, req.encode(),
                                MessageType::kAdvanceReply);
  return AdvanceReply::decode(reply.payload).next_slot;
}

void PostcardClient::shutdown() {
  roundtrip(MessageType::kShutdown, {}, MessageType::kShutdownReply);
}

}  // namespace postcard::server
