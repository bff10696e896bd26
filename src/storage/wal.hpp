// Append-only write-ahead log of decided consensus values.
//
// On-disk layout (see DESIGN.md §9): a directory of segment files named
// `wal-<first-cid, 20 decimal digits>.seg`. Each segment starts with an
// 8-byte magic ("BFTWAL1\n") followed by length+CRC32-framed records (the
// frame of storage/io.hpp, also used by the checkpoint body):
//
//   u32 payload_len | u32 crc32(payload) | payload
//   payload = u64 cid (LE) | value bytes
//
// Records carry strictly increasing cids (consecutive on the normal path; a
// state-transfer jump may leave a gap, which replay treats as the end of the
// usable prefix). Segments rotate once the active one exceeds
// `segment_bytes`; whole segments strictly below a persisted checkpoint are
// pruned.
//
// Durability policies:
//   * always — fsync inline after every append (slow, zero loss window);
//   * group  — appends only write(); a background flusher thread fsyncs the
//              active segment every 2 ms while dirty (group commit: one
//              fsync amortizes every append in the window);
//   * off    — never fsync (page cache only; survives process crashes, not
//              power loss).
//
// Crash recovery: open() reads every segment whole, validates each frame,
// and truncates the log at the first torn, corrupt or non-monotonic frame —
// the clean prefix survives, everything after the break (including later
// segments) is discarded, and the byte count is reported so operators can
// see how much a power failure cost.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"

namespace bft::storage {

enum class FsyncPolicy : std::uint8_t { always = 0, group = 1, off = 2 };

/// Parses "always" | "group" | "off" (the --fsync flag values).
Result<FsyncPolicy> parse_fsync_policy(const std::string& name);
const char* fsync_policy_name(FsyncPolicy policy);

struct WalOptions {
  std::string directory;               // created if missing
  std::size_t segment_bytes = 8u << 20;  // rotate past this size
  FsyncPolicy fsync = FsyncPolicy::group;
  /// Registry to export (borrowed; must outlive the log). The log always
  /// records storage.wal_appends, storage.fsync_ns and
  /// storage.truncated_tail_bytes; when null, into a registry of its own.
  obs::MetricsRegistry* metrics = nullptr;
};

class WriteAheadLog {
 public:
  /// Opens (creating the directory if needed), scans all segments and
  /// truncates any torn/corrupt tail. Fails on unreadable directories.
  static Result<std::unique_ptr<WriteAheadLog>> open(WalOptions options);

  /// Joins the flusher (if any) and fsyncs dirty state (unless `off`).
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one decision. Records must arrive in increasing cid order;
  /// appends at or below the current tail cid are skipped (idempotent
  /// re-persist after a state transfer). Fails only on I/O errors. Under
  /// `always` it fails when the record's fsync does.
  ///
  /// A failed fsync is final: the kernel may already have dropped the dirty
  /// pages it could not write, so nothing appended before it can be called
  /// durable again. The log keeps the first such failure (from an append,
  /// the group flusher, a rotation or a segment's directory entry) and every
  /// later append and flush returns it.
  Status append(std::uint64_t cid, ByteView value);

  /// Invokes `fn` for every record with cid > `after` that is contiguous
  /// from `after` (first emitted must be after+1, then +1 each); stops at
  /// the first gap. Returns the number of records emitted.
  std::uint64_t replay(
      std::uint64_t after,
      const std::function<void(std::uint64_t cid, ByteView value)>& fn) const;

  /// fsync now if anything is unsynced (no-op under `off`). Returns the
  /// log's first fsync failure, if any.
  Status flush();

  /// Deletes whole segments whose records all have cid < `cid`. The active
  /// segment is never pruned.
  void prune_below(std::uint64_t cid);

  /// Highest cid in the log (0 when empty).
  std::uint64_t tail_cid() const;
  /// Records accepted by append() in this process lifetime.
  std::uint64_t appended_records() const;
  /// Bytes discarded by torn-tail/corruption truncation at open().
  std::uint64_t truncated_tail_bytes() const { return truncated_bytes_; }
  std::size_t segment_count() const;

 private:
  struct Segment {
    std::string path;
    std::uint64_t first_cid = 0;  // 0 = header-only (no records yet)
    std::uint64_t last_cid = 0;
    std::uint64_t size_bytes = 0;
  };

  explicit WriteAheadLog(WalOptions options);

  Status scan_on_open();
  /// Validates one segment file; truncates it at the first bad frame.
  /// Returns false if the segment is unusable (bad header) — caller deletes.
  bool scan_segment(Segment& segment, std::uint64_t prev_cid);
  Status open_active_segment(std::uint64_t first_cid);
  /// fsyncs the active segment; returns the log's first fsync failure.
  Status fsync_active_locked();
  /// Keeps the first fsync failure (see append) and returns it.
  Status fsync_failed_locked(const std::string& what, int error);
  void flusher_main();

  WalOptions options_;
  obs::RegistryOrOwned metrics_;
  obs::Counter& appends_metric_;         // storage.wal_appends
  obs::LatencyHistogram& fsync_ns_;      // storage.fsync_ns
  obs::Counter& truncated_tail_metric_;  // storage.truncated_tail_bytes
  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  int active_fd_ = -1;
  int dir_fd_ = -1;
  std::uint64_t tail_cid_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t truncated_bytes_ = 0;
  bool dirty_ = false;
  Status fsync_error_;  // first fsync failure; ok until one happens

  // Group-commit flusher.
  std::thread flusher_;
  std::condition_variable flusher_cv_;
  bool stopping_ = false;
};

}  // namespace bft::storage
