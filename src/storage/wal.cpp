#include "storage/wal.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.hpp"
#include "common/serial.hpp"
#include "storage/io.hpp"

namespace bft::storage {

namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kMagicBytes[8] = {'B', 'F', 'T', 'W',
                                         'A', 'L', '1', '\n'};
constexpr ByteView kMagic(kMagicBytes);
// A decided batch is bounded by batch_max * envelope size; anything claiming
// more than this is a corrupt length field, not a record.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;
// Group commit: under `group` the flusher fsyncs at most once per window.
constexpr auto kGroupCommitWindow = std::chrono::milliseconds(2);

std::string segment_name(std::uint64_t first_cid) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.seg",
                static_cast<unsigned long long>(first_cid));
  return buf;
}

/// Scans the records of a whole segment file `file` (magic already checked);
/// calls `fn(cid, value)` for each valid one (fn may be empty) and stops
/// after a call that returns false. A torn, corrupt or non-monotonic frame
/// also ends the scan; `valid_end` is the offset just past the last valid
/// frame read.
struct ScanResult {
  std::size_t valid_end = 0;
  std::uint64_t first_cid = 0;
  std::uint64_t last_cid = 0;
};

ScanResult scan_frames(
    ByteView file, std::uint64_t prev_cid,
    const std::function<bool(std::uint64_t, ByteView)>& fn) {
  ScanResult result;
  Reader in(file);
  in.view(kMagic.size());
  result.valid_end = kMagic.size();
  std::uint64_t last = prev_cid;
  while (const std::optional<ByteView> payload =
             read_frame(in, kMaxRecordBytes)) {
    if (payload->size() < 8) break;
    Reader record(*payload);
    const std::uint64_t cid = record.u64();
    if (cid <= last) break;  // non-monotonic: forked or corrupted history
    last = cid;
    if (result.first_cid == 0) result.first_cid = cid;
    result.last_cid = cid;
    result.valid_end = file.size() - in.remaining();
    if (fn && !fn(cid, record.view(record.remaining()))) break;
  }
  return result;
}

}  // namespace

Result<FsyncPolicy> parse_fsync_policy(const std::string& name) {
  if (name == "always") return FsyncPolicy::always;
  if (name == "group") return FsyncPolicy::group;
  if (name == "off") return FsyncPolicy::off;
  return Result<FsyncPolicy>::failure("unknown fsync policy '" + name +
                                      "' (always|group|off)");
}

const char* fsync_policy_name(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::always: return "always";
    case FsyncPolicy::group: return "group";
    case FsyncPolicy::off: return "off";
  }
  return "?";
}

WriteAheadLog::WriteAheadLog(WalOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics),
      appends_metric_(metrics_->counter("storage.wal_appends",
                                        "decisions appended to the WAL")),
      fsync_ns_(metrics_->histogram("storage.fsync_ns", "ns",
                                    "latency of WAL fsync calls")),
      truncated_tail_metric_(metrics_->counter(
          "storage.truncated_tail_bytes",
          "bytes discarded truncating torn/corrupt WAL tails at open")) {}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::open(WalOptions options) {
  std::error_code ec;
  fs::create_directories(options.directory, ec);
  if (ec) {
    return Result<std::unique_ptr<WriteAheadLog>>::failure(
        "wal: cannot create " + options.directory + ": " + ec.message());
  }
  std::unique_ptr<WriteAheadLog> wal(new WriteAheadLog(std::move(options)));
  wal->dir_fd_ = ::open(wal->options_.directory.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (wal->dir_fd_ < 0) {
    return Result<std::unique_ptr<WriteAheadLog>>::failure(
        "wal: cannot open directory " + wal->options_.directory);
  }
  const Status scanned = wal->scan_on_open();
  if (!scanned.is_ok()) {
    return Result<std::unique_ptr<WriteAheadLog>>::failure(scanned.error());
  }
  wal->truncated_tail_metric_.add(wal->truncated_bytes_);
  if (wal->options_.fsync == FsyncPolicy::group) {
    wal->flusher_ = std::thread([w = wal.get()] { w->flusher_main(); });
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dirty_ && options_.fsync != FsyncPolicy::off) fsync_active_locked();
    if (active_fd_ >= 0) ::close(active_fd_);
    if (dir_fd_ >= 0) ::close(dir_fd_);
  }
}

Status WriteAheadLog::scan_on_open() {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(options_.directory)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && name.size() > 8 &&
        name.substr(name.size() - 4) == ".seg") {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());  // fixed-width cid => lexicographic

  std::uint64_t prev_cid = 0;
  bool broken = false;
  for (const std::string& name : names) {
    Segment segment;
    segment.path = options_.directory + "/" + name;
    if (broken) {
      // Everything after a break is unreachable history: discard it.
      std::error_code ec;
      truncated_bytes_ += fs::file_size(segment.path, ec);
      fs::remove(segment.path, ec);
      continue;
    }
    const std::uint64_t truncated_before = truncated_bytes_;
    if (!scan_segment(segment, prev_cid)) {
      std::error_code ec;
      truncated_bytes_ += fs::file_size(segment.path, ec);
      fs::remove(segment.path, ec);
      broken = true;
      continue;
    }
    // A mid-segment truncation also severs everything after it: records in
    // later segments are beyond the hole and must not survive as a fork.
    if (truncated_bytes_ > truncated_before) broken = true;
    if (segment.last_cid > 0) prev_cid = segment.last_cid;
    segments_.push_back(std::move(segment));
  }
  tail_cid_ = prev_cid;

  // Reopen the last segment for appending (if any).
  if (!segments_.empty()) {
    Segment& last = segments_.back();
    active_fd_ = ::open(last.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (active_fd_ < 0) {
      return Status::failure("wal: cannot reopen " + last.path);
    }
  }
  return Status::ok();
}

bool WriteAheadLog::scan_segment(Segment& segment, std::uint64_t prev_cid) {
  const std::optional<Bytes> file = read_file(segment.path);
  if (!file || !has_magic(*file, kMagic)) {
    return false;  // bad header: the whole file is garbage
  }
  const std::size_t size = file->size();
  const ScanResult scan = scan_frames(*file, prev_cid, {});
  if (scan.valid_end != size) {
    // Torn or corrupt tail: keep the clean prefix, drop the rest.
    truncated_bytes_ += size - scan.valid_end;
    if (::truncate(segment.path.c_str(),
                   static_cast<off_t>(scan.valid_end)) != 0) {
      return false;
    }
    BFT_LOG(warn) << "wal: truncated " << segment.path << " to "
                  << scan.valid_end << " bytes (" << (size - scan.valid_end)
                  << " torn bytes dropped)";
  }
  segment.first_cid = scan.first_cid;
  segment.last_cid = scan.last_cid;
  segment.size_bytes = scan.valid_end;
  return true;
}

Status WriteAheadLog::open_active_segment(std::uint64_t first_cid) {
  if (active_fd_ >= 0) {
    if (dirty_ && options_.fsync != FsyncPolicy::off) {
      const Status synced = fsync_active_locked();
      if (!synced.is_ok()) return synced;
    }
    ::close(active_fd_);
    active_fd_ = -1;
  }
  Segment segment;
  segment.path = options_.directory + "/" + segment_name(first_cid);
  const int fd = ::open(segment.path.c_str(),
                        O_CREAT | O_EXCL | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::failure("wal: cannot create " + segment.path + ": " +
                           std::strerror(errno));
  }
  // Until it is adopted below, a failure leaves no half-made segment behind,
  // so a later append can create it again.
  auto abandon = [&](Status status) {
    ::close(fd);
    std::error_code ec;
    fs::remove(segment.path, ec);
    return status;
  };
  const Status header = write_all(fd, kMagic);
  if (!header.is_ok()) return abandon(Status::failure("wal: " + header.error()));
  // Make the new segment name durable before any record relies on it.
  if (options_.fsync != FsyncPolicy::off && ::fsync(dir_fd_) != 0) {
    const int sync_errno = errno;
    return abandon(fsync_failed_locked(
        "fsync of directory " + options_.directory, sync_errno));
  }
  active_fd_ = fd;
  segment.size_bytes = kMagic.size();
  segments_.push_back(std::move(segment));
  return Status::ok();
}

Status WriteAheadLog::append(std::uint64_t cid, ByteView value) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!fsync_error_.is_ok()) return fsync_error_;
  if (cid <= tail_cid_) return Status::ok();  // idempotent re-persist

  if (active_fd_ < 0 ||
      (!segments_.empty() &&
       segments_.back().size_bytes >= options_.segment_bytes)) {
    const Status opened = open_active_segment(cid);
    if (!opened.is_ok()) return opened;
  }

  Writer cid_le(8);
  cid_le.u64(cid);
  Writer record(kFrameHeaderBytes + 8 + value.size());
  append_frame(record, {cid_le.data(), value});
  const Status written = write_all(active_fd_, record.data());
  if (!written.is_ok()) return Status::failure("wal: " + written.error());

  Segment& active = segments_.back();
  active.size_bytes += record.size();
  if (active.first_cid == 0) active.first_cid = cid;
  active.last_cid = cid;
  tail_cid_ = cid;
  ++appended_;
  appends_metric_.add();

  switch (options_.fsync) {
    case FsyncPolicy::always:
      return fsync_active_locked();
    case FsyncPolicy::group:
      dirty_ = true;
      break;
    case FsyncPolicy::off:
      break;
  }
  return Status::ok();
}

Status WriteAheadLog::fsync_active_locked() {
  if (active_fd_ < 0) return fsync_error_;
  const auto start = std::chrono::steady_clock::now();
  const bool synced = ::fsync(active_fd_) == 0;
  const int sync_errno = errno;
  fsync_ns_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  dirty_ = false;
  if (!synced) {
    return fsync_failed_locked("fsync of " + segments_.back().path, sync_errno);
  }
  return fsync_error_;
}

Status WriteAheadLog::fsync_failed_locked(const std::string& what, int error) {
  if (fsync_error_.is_ok()) {
    fsync_error_ = Status::failure("wal: " + what + ": " + std::strerror(error));
    BFT_LOG(error) << fsync_error_.error()
                   << "; the log refuses further appends";
  }
  return fsync_error_;
}

Status WriteAheadLog::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirty_ && options_.fsync != FsyncPolicy::off) return fsync_active_locked();
  return fsync_error_;
}

void WriteAheadLog::flusher_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    flusher_cv_.wait_for(lock, kGroupCommitWindow,
                         [this] { return stopping_; });
    if (stopping_) break;
    if (!dirty_ || active_fd_ < 0) continue;
    // Group commit: fsync a dup of the fd outside the lock so appends keep
    // flowing while the disk syncs. Writes that land after the dup simply
    // re-mark the log dirty for the next round.
    const int fd = ::dup(active_fd_);
    dirty_ = false;
    lock.unlock();
    const auto start = std::chrono::steady_clock::now();
    // A failed dup is a failed sync too: the window's appends are not durable.
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    const int sync_errno = errno;
    if (fd >= 0) ::close(fd);
    fsync_ns_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    lock.lock();
    if (!synced) {
      fsync_failed_locked("group fsync in " + options_.directory, sync_errno);
    }
  }
}

std::uint64_t WriteAheadLog::replay(
    std::uint64_t after,
    const std::function<void(std::uint64_t, ByteView)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t next = after + 1;
  std::uint64_t emitted = 0;
  for (const Segment& segment : segments_) {
    if (segment.last_cid != 0 && segment.last_cid < next) continue;
    const std::optional<Bytes> file = read_file(segment.path);
    if (!file || !has_magic(*file, kMagic)) break;
    bool stop = false;
    scan_frames(*file, 0, [&](std::uint64_t cid, ByteView value) {
      if (cid < next) return true;
      if (cid > next) {  // gap: the rest is unusable
        stop = true;
        return false;
      }
      fn(cid, value);
      ++next;
      ++emitted;
      return true;
    });
    if (stop) break;
  }
  return emitted;
}

void WriteAheadLog::prune_below(std::uint64_t cid) {
  std::lock_guard<std::mutex> lock(mu_);
  while (segments_.size() > 1) {
    const Segment& first = segments_.front();
    if (first.last_cid == 0 || first.last_cid >= cid) break;
    std::error_code ec;
    fs::remove(first.path, ec);
    segments_.erase(segments_.begin());
  }
}

std::uint64_t WriteAheadLog::tail_cid() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tail_cid_;
}

std::uint64_t WriteAheadLog::appended_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

std::size_t WriteAheadLog::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

}  // namespace bft::storage
