// Per-node durable storage root: one data directory owning a write-ahead log
// of decided values and a dual-slot checkpoint store, stamped with the node
// id so a replica cannot accidentally start against another node's history
// (which would serve a forked view of the chain).
//
// Layout under `directory`:
//   NODE                 one-line stamp "node <id>\n" written on first open
//   wal/wal-*.seg        append-only decision log (storage/wal.hpp)
//   checkpoint-{a,b}.ckpt  alternating checkpoint slots (storage/checkpoint.hpp)
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "storage/checkpoint.hpp"
#include "storage/wal.hpp"

namespace bft::storage {

struct StoreOptions {
  std::string directory;       // created if missing
  std::uint32_t node_id = 0;   // stamped into NODE; mismatch refuses to open
  std::size_t wal_segment_bytes = 8u << 20;
  FsyncPolicy fsync = FsyncPolicy::group;
  /// Registry to export (borrowed; must outlive the store). The store and
  /// its WAL always record their storage.* instruments; when null, into a
  /// registry of the store's own.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Owns the durable state of one replica process. All methods delegate to the
/// WAL / checkpoint store; this class adds the node-id stamp, the metric
/// registrations and restart bookkeeping (replayed-record counting).
class NodeStore {
 public:
  static Result<std::unique_ptr<NodeStore>> open(StoreOptions options);

  /// Write-ahead persist of one decided value (call BEFORE executing it).
  Status append_decision(std::uint64_t cid, ByteView value);

  /// Valid checkpoints, newest first (0..2 entries).
  std::vector<Checkpoint> load_checkpoints() const { return checkpoints_->load(); }

  /// Persists a checkpoint and prunes WAL segments older than the retained
  /// window (both on-disk slots).
  Status write_checkpoint(const Checkpoint& cp);

  /// Replays contiguous decisions with cid > `after`; counts them into the
  /// storage.replayed_blocks metric. Returns the number replayed.
  std::uint64_t replay(
      std::uint64_t after,
      const std::function<void(std::uint64_t cid, ByteView value)>& fn);

  /// Force-fsync outstanding WAL writes (used before orderly shutdown).
  /// Returns the WAL's first fsync failure, if any.
  Status flush() { return wal_->flush(); }

  /// Startup recovery runs on the replica's own event loop; the hosting
  /// process sets/reads this to know when the replay counters are final
  /// (e.g. bft_node blocks on it before printing its storage banner).
  void mark_recovery_complete() {
    recovery_complete_.store(true, std::memory_order_release);
  }
  bool recovery_complete() const {
    return recovery_complete_.load(std::memory_order_acquire);
  }

  const std::string& directory() const { return options_.directory; }
  std::uint64_t wal_tail_cid() const { return wal_->tail_cid(); }
  std::uint64_t replayed_records() const { return replayed_; }
  std::uint64_t truncated_tail_bytes() const {
    return wal_->truncated_tail_bytes();
  }
  WriteAheadLog& wal() { return *wal_; }

 private:
  explicit NodeStore(StoreOptions options);

  StoreOptions options_;
  obs::RegistryOrOwned metrics_;  // shared with the WAL
  obs::Counter& replayed_metric_;   // storage.replayed_blocks
  obs::Counter& checkpoint_bytes_;  // storage.checkpoint_bytes
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<CheckpointStore> checkpoints_;
  std::uint64_t replayed_ = 0;
  std::atomic<bool> recovery_complete_{false};
};

}  // namespace bft::storage
