#include "server/wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace postcard::server {

std::vector<std::uint8_t> encode_frame(
    MessageType type, const std::vector<std::uint8_t>& payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.raw(payload.data(), payload.size());
  return w.take();
}

bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF on a frame boundary
      throw WireError("connection closed mid-frame (" + std::to_string(got) +
                      " of " + std::to_string(n) + " bytes)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // SO_RCVTIMEO expired. At got == 0 the peer is merely idle; mid-read
      // it stalled inside a frame (half-open or wedged).
      throw WireTimeout("recv deadline expired after " + std::to_string(got) +
                        " of " + std::to_string(n) + " bytes");
    }
    throw WireError("recv failed: errno " + std::to_string(errno));
  }
  return true;
}

void write_all(int fd, const std::uint8_t* data, std::size_t n,
               int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms < 0 ? 0
                                                                 : timeout_ms);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      // send() returning 0 for n > 0 should not happen on a socket; treat
      // it as a dead peer rather than spinning or reading stale errno.
      throw WireError("send returned 0 (" + std::to_string(sent) + " of " +
                      std::to_string(n) + " bytes)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Socket buffer full (non-blocking fd, SO_SNDTIMEO, or a peer that
      // stopped draining). With no deadline keep blocking via poll; with
      // one, wait only for the time remaining.
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) {
          throw WireTimeout("send deadline expired after " +
                            std::to_string(sent) + " of " +
                            std::to_string(n) + " bytes");
        }
        wait_ms = static_cast<int>(left.count());
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int p = ::poll(&pfd, 1, wait_ms);
      if (p < 0 && errno != EINTR) {
        throw WireError("poll failed: errno " + std::to_string(errno));
      }
      if (p == 0 && timeout_ms >= 0) {
        throw WireTimeout("send deadline expired after " +
                          std::to_string(sent) + " of " + std::to_string(n) +
                          " bytes");
      }
      continue;
    }
    throw WireError("send failed: errno " + std::to_string(errno));
  }
}

bool read_frame(int fd, Frame* out, std::size_t max_frame_bytes) {
  std::uint8_t header[8];
  if (!read_exact(fd, header, sizeof(header))) return false;
  ByteReader r(header, sizeof(header));
  const std::uint32_t payload_len = r.u32();
  const std::uint16_t version = r.u16();
  const std::uint16_t type = r.u16();
  r.require_done();  // the three reads must consume the header exactly
  if (version != kProtocolVersion) {
    throw WireError("protocol version " + std::to_string(version) +
                    " unsupported (expected " +
                    std::to_string(kProtocolVersion) + ")");
  }
  if (payload_len > max_frame_bytes) {
    throw WireError("declared payload of " + std::to_string(payload_len) +
                    " bytes exceeds frame limit of " +
                    std::to_string(max_frame_bytes));
  }
  out->type = static_cast<MessageType>(type);
  out->payload.assign(payload_len, 0);
  if (payload_len > 0 && !read_exact(fd, out->payload.data(), payload_len)) {
    throw WireError("connection closed before " + std::to_string(payload_len) +
                    "-byte payload arrived");
  }
  return true;
}

void write_frame(int fd, MessageType type,
                 const std::vector<std::uint8_t>& payload, int timeout_ms) {
  const std::vector<std::uint8_t> frame = encode_frame(type, payload);
  write_all(fd, frame.data(), frame.size(), timeout_ms);
}

namespace {

/// A fresh TCP socket and the IPv4 address of host:port; throws WireError
/// naming `address` when the host does not parse or no socket is left.
int tcp_socket(const std::string& host, int port, const std::string& address,
               sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    throw WireError("invalid address " + address);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw WireError("socket() for " + address + " failed: errno " +
                    std::to_string(errno));
  }
  return fd;
}

/// Closes `fd` and throws WireError for the failed `step` on `address`,
/// with the errno that step left.
[[noreturn]] void fail_socket(int fd, const char* step,
                              const std::string& address) {
  const int err = errno;
  ::close(fd);
  throw WireError(std::string(step) + " " + address + " failed: errno " +
                  std::to_string(err));
}

}  // namespace

int listen_tcp(const std::string& host, int port, int backlog,
               int* bound_port) {
  const std::string address = host + ":" + std::to_string(port);
  sockaddr_in addr;
  const int fd = tcp_socket(host, port, address, &addr);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail_socket(fd, "bind to", address);
  }
  if (::listen(fd, backlog) != 0) fail_socket(fd, "listen on", address);
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail_socket(fd, "getsockname on", address);
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

int connect_tcp(const std::string& host, int port, int recv_timeout_ms) {
  const std::string address = host + ":" + std::to_string(port);
  sockaddr_in addr;
  const int fd = tcp_socket(host, port, address, &addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail_socket(fd, "connect to", address);
  }
  set_socket_timeout(fd, SO_RCVTIMEO, recv_timeout_ms);
  return fd;
}

void set_socket_timeout(int fd, int option, int ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

}  // namespace postcard::server
