#include "server/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace postcard::server {

PostcardClient::PostcardClient(const std::string& host, int port,
                               int io_timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw WireError("socket() failed: errno " + std::to_string(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw WireError("invalid server address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw WireError("connect to " + host + ":" + std::to_string(port) +
                    " failed: errno " + std::to_string(err));
  }
  if (io_timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = io_timeout_ms / 1000;
    tv.tv_usec = (io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
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
