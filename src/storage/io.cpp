#include "storage/io.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "storage/crc32.hpp"

namespace bft::storage {

namespace {

/// "<what>: <errno text>".
Status errno_failure(const std::string& what) {
  return Status::failure(what + ": " + std::strerror(errno));
}

}  // namespace

void append_frame(Writer& out, std::initializer_list<ByteView> payload_parts) {
  std::size_t len = 0;
  std::uint32_t crc = 0;
  for (const ByteView part : payload_parts) {
    len += part.size();
    crc = crc32_ieee_update(crc, part);
  }
  out.u32(static_cast<std::uint32_t>(len));
  out.u32(crc);
  for (const ByteView part : payload_parts) out.raw(part);
}

bool has_magic(ByteView file, ByteView magic) {
  return file.size() >= magic.size() &&
         std::equal(magic.begin(), magic.end(), file.begin());
}

std::optional<ByteView> read_frame(Reader& in, std::uint32_t max_payload) {
  if (in.remaining() < kFrameHeaderBytes) return std::nullopt;
  Reader probe = in;
  const std::uint32_t len = probe.u32();
  const std::uint32_t crc = probe.u32();
  if (len > max_payload || len > probe.remaining()) return std::nullopt;
  const ByteView payload = probe.view(len);
  if (crc32_ieee(payload) != crc) return std::nullopt;
  in = probe;
  return payload;
}

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) return std::nullopt;
  Bytes contents(static_cast<std::size_t>(size));
  in.seekg(0);
  if (!in.read(reinterpret_cast<char*>(contents.data()), size)) {
    return std::nullopt;
  }
  return contents;
}

Status write_all(int fd, ByteView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return errno_failure("write");
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status replace_file(const std::string& path, ByteView data) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return errno_failure("create " + tmp);
  Status status = write_all(fd, data);
  if (status.is_ok() && ::fsync(fd) != 0) status = errno_failure("fsync");
  if (::close(fd) != 0 && status.is_ok()) status = errno_failure("close");
  if (status.is_ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = errno_failure("rename to " + path);
  }
  if (!status.is_ok()) return Status::failure(tmp + ": " + status.error());
  // The rename is durable only once the directory entry is.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0 || ::fsync(dir_fd) != 0) status = errno_failure("fsync " + dir);
  if (dir_fd >= 0) ::close(dir_fd);
  return status;
}

}  // namespace bft::storage
