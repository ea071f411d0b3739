#include "server/snapshot.h"

#include <cerrno>
#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

#include "audit/fingerprint.h"
#include "server/protocol.h"

namespace postcard::server {

std::vector<std::uint8_t> encode_snapshot(
    const runtime::RuntimeSnapshot& snap) {
  ByteWriter body;
  put(body, snap);

  ByteWriter file;
  file.u32(kSnapshotMagic);
  file.u32(kSnapshotVersion);
  file.u64(static_cast<std::uint64_t>(body.size()));
  file.raw(body.data().data(), body.size());
  // The replication divergence fingerprint's hash (audit/fingerprint.h).
  const std::uint64_t checksum =
      audit::fnv1a64(file.data().data(), file.size());
  file.u64(checksum);
  return file.take();
}

runtime::RuntimeSnapshot decode_snapshot(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) {
    // Distinct from mere truncation: an empty file usually means the
    // snapshot was never written (crash before first byte), not damaged.
    throw WireError("snapshot file is empty");
  }
  if (bytes.size() < 4 + 4 + 8 + 8) {
    throw WireError("snapshot shorter than header + trailer");
  }
  ByteReader header(bytes.data(), bytes.size() - 8);
  const std::uint32_t magic = header.u32();
  if (magic != kSnapshotMagic) {
    throw WireError("bad snapshot magic");
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    throw WireError("unsupported snapshot version " + std::to_string(version));
  }
  const std::uint64_t body_len = header.u64();
  if (body_len != header.remaining()) {
    throw WireError("snapshot body length mismatch: header says " +
                    std::to_string(body_len) + ", file holds " +
                    std::to_string(header.remaining()));
  }
  ByteReader trailer(bytes.data() + bytes.size() - 8, 8);
  const std::uint64_t stored = trailer.u64();
  trailer.require_done();
  const std::uint64_t actual = audit::fnv1a64(bytes.data(), bytes.size() - 8);
  if (stored != actual) {
    throw WireError("snapshot checksum mismatch (file corrupt or tampered)");
  }
  runtime::RuntimeSnapshot snap;
  get(header, snap);
  header.require_done();
  return snap;
}

void write_snapshot_file(const std::string& path,
                         const runtime::RuntimeSnapshot& snap) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw WireError("cannot create " + tmp + ": errno " +
                    std::to_string(errno));
  }
  try {
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t r =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (r < 0) {
        if (errno == EINTR) continue;
        throw WireError("write to " + tmp + " failed: errno " +
                        std::to_string(errno));
      }
      written += static_cast<std::size_t>(r);
    }
    if (::fsync(fd) != 0) {
      throw WireError("fsync of " + tmp + " failed: errno " +
                      std::to_string(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw WireError("rename " + tmp + " -> " + path + " failed: errno " +
                    std::to_string(errno));
  }
  // The rename lives in the parent directory's entries: fsync the directory
  // too, or a power loss after returning can bring the old file back.
  const std::size_t slash = path.rfind('/');
  std::string dir = ".";
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : path.substr(0, slash);
  }
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    throw WireError("cannot open directory " + dir + ": errno " +
                    std::to_string(errno));
  }
  const int synced = ::fsync(dir_fd);
  const int fsync_errno = errno;
  ::close(dir_fd);
  if (synced != 0) {
    throw WireError("fsync of directory " + dir + " failed: errno " +
                    std::to_string(fsync_errno));
  }
}

runtime::RuntimeSnapshot read_snapshot_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw WireError("cannot open snapshot " + path + ": errno " +
                    std::to_string(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r > 0) {
      bytes.insert(bytes.end(), buf, buf + r);
      continue;
    }
    if (r == 0) break;
    if (errno == EINTR) continue;
    ::close(fd);
    throw WireError("read of snapshot " + path + " failed: errno " +
                    std::to_string(errno));
  }
  ::close(fd);
  return decode_snapshot(bytes);
}

}  // namespace postcard::server
