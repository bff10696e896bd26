// Persistent replica checkpoints with atomic replacement.
//
// Two slots (`checkpoint-a.ckpt` / `checkpoint-b.ckpt`) alternate: a write
// goes to a temporary file, is fsynced, then renamed over the slot holding
// the older (or invalid) checkpoint, and the directory entry is fsynced. A
// crash at any point leaves at least one intact checkpoint; a torn write
// corrupts only the slot being replaced, which load() rejects by CRC.
//
// File format (the frame is storage/io.hpp's, shared with the WAL):
//   magic "BFTCKPT1" | u32 payload_len | u32 crc32(payload) | payload
//   payload = u64 cid | 32-byte integrity digest | u32-len snapshot bytes
//
// The integrity digest is computed by the application over its chain heads
// (ledger::chain_position_digest per channel); recovery recomputes it after
// restoring the snapshot and refuses the checkpoint on mismatch — a CRC-valid
// file that decodes into a forked or mis-stamped chain fails closed.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/serial.hpp"
#include "crypto/sha256.hpp"

namespace bft::storage {

struct Checkpoint {
  std::uint64_t cid = 0;            // decisions up to and including this one
  crypto::Hash256 integrity{};      // app chain-head digest at `cid`
  Bytes snapshot;                   // replica core snapshot (opaque here)
};

class CheckpointStore {
 public:
  /// Opens (creating the directory if needed) and reads both slots once to
  /// learn their cids. Never fails on corrupt slot contents — those count as
  /// empty slots and surface as an empty load().
  static Result<std::unique_ptr<CheckpointStore>> open(std::string directory);

  /// All slots that parse and pass CRC, highest cid first (0..2 entries).
  std::vector<Checkpoint> load() const;

  /// Atomically persists `cp` into the slot holding the older checkpoint.
  /// Returns the retain floor: the lowest cid across the valid slots after
  /// the write. WAL segments entirely below it are no longer needed for
  /// recovery. Reads no file: the slot cids are the ones open() read, kept
  /// current by every write (a failed write counts its slot as empty).
  Result<std::uint64_t> write(const Checkpoint& cp);

  /// Size of the last file written by this process (0 before any write).
  std::uint64_t last_written_bytes() const { return last_written_bytes_; }

 private:
  explicit CheckpointStore(std::string directory);

  std::string slot_path(int slot) const;

  std::string directory_;
  std::optional<std::uint64_t> slot_cids_[2];  // nullopt = empty or invalid
  std::uint64_t last_written_bytes_ = 0;
};

}  // namespace bft::storage
