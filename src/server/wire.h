// Wire primitives: bounds-checked binary encoding and length-prefixed
// framing for the controller's socket protocol and snapshot files.
//
// Everything on the wire is little-endian and explicitly sized; doubles
// travel as their IEEE-754 bit patterns, so a value decodes to exactly the
// double that was encoded — the foundation of the snapshot's bit-for-bit
// restore guarantee. ByteReader never reads past its buffer: every
// accessor checks bounds and throws WireError on a short or lying input,
// so a malformed frame can reject a session but never corrupt the server.
//
// Frame layout (see DESIGN.md §11):
//
//   u32 payload_length   (bytes after the 8-byte header)
//   u16 protocol version (kProtocolVersion; mismatches are rejected)
//   u16 message type     (MessageType)
//   ...payload...
//
// The declared payload length is validated against a caller-supplied
// maximum BEFORE any allocation, so an adversarial 4 GB declaration costs
// nothing but a closed connection.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace postcard::server {

// v5: BackendStats lost the split-batch conflict re-solve counter.
// v6: BackendStats lost the dual-warm-start counters.
// v7: RuntimeStats lost the warm/cold solve-latency histograms and
// BackendStats its DCRoute rung counter.
// v8: BackendStats lost its audit report lines (fail-fast throws before a
// report could reach them).
// v9: ReplHello and ReplHeartbeat carry no payload, and ReplAck only its
// slot; the replication stream's events no longer include slot ticks.
// v10: RuntimeStats lost its solver stall/fault counters (16 bytes), and
// the replication stream carries no solver stall or fault events.
// v11: ReplCommit's fingerprint hashes the stats fields tagged
// deterministic in their wire order and encoding, audit_armed and
// audit_violations included; StatsReply bytes are unchanged.
inline constexpr std::uint16_t kProtocolVersion = 11;

/// Default cap on a single frame's payload. SubmitBatch with tens of
/// thousands of files and a full stats reply both fit comfortably.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 24;

/// Malformed or truncated wire data. Always an input problem, never UB:
/// sessions catch it, answer with an Error frame when the socket still
/// works, and close.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A deadline expired mid-read or mid-write (SO_RCVTIMEO/SO_SNDTIMEO or an
/// explicit timeout_ms). Distinct from WireError so callers can tell a
/// *slow* peer from a *broken* one: the idle-session reaper closes a timed
/// out session quietly, idle or stalled mid-frame alike, instead of
/// counting a protocol error, and the replication primary drops a stalled
/// standby for reseeding rather than treating it as malformed input.
class WireTimeout : public WireError {
 public:
  using WireError::WireError;
};

enum class MessageType : std::uint16_t {
  // Requests.
  kSubmitFile = 1,
  kSubmitBatch = 2,
  kQueryPlan = 3,
  kQueryStats = 4,
  kSnapshot = 5,
  kShutdown = 6,
  kAdvanceSlot = 7,
  // Replies.
  kSubmitReply = 65,
  kBatchReply = 66,
  kPlanReply = 67,
  kStatsReply = 68,
  kSnapshotReply = 69,
  kShutdownReply = 70,
  kAdvanceReply = 71,
  kBackpressure = 72,  // admission control said no; explicit, not a hangup
  kError = 73,         // protocol violation; the session closes after this
  // Replication channel (primary <-> standby), DESIGN.md §14. Numbered
  // from 100 so client-facing types can grow without colliding.
  kReplHello = 100,      // standby -> primary: introduce, ask for a seed
  kReplSnapshot = 101,   // primary -> standby: full PSNP bootstrap image
  kReplEvents = 102,     // primary -> standby: ordered event-push batch
  kReplCommit = 103,     // primary -> standby: slot commit + fingerprint
  kReplHeartbeat = 104,  // primary -> standby: liveness between commits
  kReplAck = 105,        // standby -> primary: applied commit
  kReplReseed = 106,     // standby -> primary: diverged, ship fresh snapshot
};

/// Appends fixed-width little-endian values to a growing buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    append_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// u32 length prefix + raw bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void raw(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Reads fixed-width little-endian values; every read is bounds-checked.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(take<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(take<std::uint64_t>()); }
  double f64() {
    const std::uint64_t bits = take<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > remaining()) {
      throw WireError("string length " + std::to_string(n) +
                      " exceeds remaining " + std::to_string(remaining()) +
                      " bytes");
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += n;
    return s;
  }
  /// Element-count prefix for vectors: rejects counts that could not
  /// possibly fit in the remaining payload (each element is at least
  /// `min_element_bytes`), so a lying count cannot trigger a huge reserve.
  std::size_t length(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (min_element_bytes > 0 &&
        static_cast<std::size_t>(n) > remaining() / min_element_bytes) {
      throw WireError("declared element count " + std::to_string(n) +
                      " cannot fit in remaining " +
                      std::to_string(remaining()) + " bytes");
    }
    return n;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Trailing garbage is as much of a protocol violation as truncation.
  void require_done() const {
    if (!done()) {
      throw WireError(std::to_string(remaining()) +
                      " trailing bytes after message payload");
    }
  }

 private:
  template <typename T>
  T take() {
    if (remaining() < sizeof(T)) {
      throw WireError("truncated payload: need " + std::to_string(sizeof(T)) +
                      " bytes, have " + std::to_string(remaining()));
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// A decoded frame header + payload.
struct Frame {
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> payload;
};

/// Encodes a complete frame (header + payload) ready for one write.
std::vector<std::uint8_t> encode_frame(MessageType type,
                                       const std::vector<std::uint8_t>& payload);

/// Blocking exact-length read/write over a socket fd, resuming across
/// EINTR and short transfers. read_exact returns false on a clean EOF at
/// byte 0 (peer closed between frames), throws WireTimeout when a receive
/// deadline set on the socket (SO_RCVTIMEO) expires, and throws WireError
/// on a mid-frame EOF or socket error. write_all throws WireError on error
/// (MSG_NOSIGNAL; a vanished peer must never SIGPIPE the server); with
/// `timeout_ms >= 0` it bounds the WHOLE write with a poll()-based
/// deadline and throws WireTimeout when the peer stops draining — the
/// replication primary uses this so one stalled standby cannot wedge the
/// slot driver forever.
bool read_exact(int fd, std::uint8_t* out, std::size_t n);
void write_all(int fd, const std::uint8_t* data, std::size_t n,
               int timeout_ms = -1);

/// Reads one frame. Returns false on clean EOF before any header byte.
/// Throws WireTimeout when the socket's receive deadline expires and
/// WireError on truncation, a version mismatch, or a declared payload
/// length beyond `max_frame_bytes` (checked before allocating).
bool read_frame(int fd, Frame* out,
                std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Writes one frame; `timeout_ms >= 0` bounds the write (see write_all).
void write_frame(int fd, MessageType type,
                 const std::vector<std::uint8_t>& payload,
                 int timeout_ms = -1);

/// Opens a TCP listener on host:port with SO_REUSEADDR; port 0 lets the
/// kernel pick one. Returns the fd and stores the bound port in
/// `*bound_port`. Throws WireError naming the address when a step fails.
int listen_tcp(const std::string& host, int port, int backlog,
               int* bound_port);

/// Connects to host:port and arms a receive deadline of
/// `recv_timeout_ms` (see set_socket_timeout). Throws WireError naming the
/// address when a step fails.
int connect_tcp(const std::string& host, int port, int recv_timeout_ms);

/// Arms SO_RCVTIMEO or SO_SNDTIMEO (`option`) on `fd`: a blocked receive or
/// send gives up after `ms`, which read_exact and write_all report as
/// WireTimeout. `ms <= 0` leaves the socket without a deadline.
void set_socket_timeout(int fd, int option, int ms);

}  // namespace postcard::server
