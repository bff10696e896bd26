// Per-run correctness checks and listen-port selection for the benchmark.
//
// DeliveryLedger is fed every block the frontend delivers. It appends the
// block to a ledger::BlockStore (number continuity, previous-hash linkage,
// data hash), checks each envelope's bytes against what the generator sent,
// and records the delivery time of each timed envelope. A second delivery of
// an envelope, a broken chain or altered bytes is a safety violation and
// fails the run; an envelope never delivered counts as failed.
//
// Envelope layout (every envelope the benchmark submits):
//   tag u8 (0 = warm-up, 1 = timed) | index u64 LE | filler
// The filler is a slice of a seeded byte pool, so bytes depend only on the
// seed, the tag and the index.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "ledger/chain.hpp"

namespace perfbench {

constexpr std::uint8_t kWarmupTag = 0;
constexpr std::uint8_t kTimedTag = 1;
constexpr std::size_t kEnvelopeHeader = 9;

/// Deterministic envelope bytes for (tag, index) of a run with `seed`.
class EnvelopeFactory {
 public:
  EnvelopeFactory(std::uint64_t seed, std::size_t envelope_bytes);

  bft::Bytes make(std::uint8_t tag, std::uint64_t index) const;
  /// True when `envelope` is exactly make(tag, index) for the tag and index
  /// it carries; fills them in.
  bool matches(bft::ByteView envelope, std::uint8_t& tag,
               std::uint64_t& index) const;
  std::size_t envelope_bytes() const { return envelope_bytes_; }

 private:
  std::size_t envelope_bytes_;
  std::vector<std::uint8_t> pool_;
};

/// Delivery bookkeeping and safety checks; thread-safe.
class DeliveryLedger {
 public:
  /// `timed_count` is the most timed envelopes the run may send.
  DeliveryLedger(const std::string& channel, const EnvelopeFactory& factory,
                 std::uint64_t timed_count);

  /// Called once the generator has stopped, having sent `count` timed
  /// envelopes (at most `timed_count`): the rest are never expected, and a
  /// delivery of one of them is a violation.
  void close_timed(std::uint64_t count);

  /// Called from the frontend's block callback with the delivery time (ns).
  void on_block(const bft::ledger::Block& block, std::int64_t now_ns);

  std::uint64_t warmup_delivered() const;
  std::uint64_t timed_delivered() const;
  /// Delivery time of timed envelope `index` (-1 while undelivered).
  std::int64_t delivered_at(std::uint64_t index) const;
  /// Delivery time of every block, in delivery order.
  std::vector<std::int64_t> block_times() const;
  /// Envelopes (warm-up and timed) delivered within [from, to).
  std::uint64_t envelopes_between(std::int64_t from, std::int64_t to) const;

  /// Final verdict after the drain: re-audits the whole chain. Returns the
  /// violations found (empty when the run is safe) and sets `failed` to the
  /// number of timed envelopes never delivered.
  std::vector<std::string> finish(std::uint64_t& failed) const;

 private:
  void violation(std::string what);

  const EnvelopeFactory& factory_;
  mutable std::mutex mu_;
  bft::ledger::BlockStore store_;
  std::vector<std::int64_t> delivered_at_;
  std::uint64_t warmup_delivered_ = 0;
  std::uint64_t timed_delivered_ = 0;
  std::vector<std::int64_t> block_times_;
  std::vector<std::uint32_t> block_sizes_;
  std::vector<std::string> violations_;
};

/// Candidate listen ports outside the kernel's ephemeral range, so no
/// outbound dial can hold a port the benchmark later binds.
class PortPicker {
 public:
  /// Reads the ephemeral range from /proc (32768-60999 if unreadable).
  explicit PortPicker(std::uint64_t entropy);
  PortPicker(std::uint64_t entropy, std::uint16_t ephemeral_lo,
             std::uint16_t ephemeral_hi);

  /// `count` consecutive ports, none inside the ephemeral range.
  std::vector<std::uint16_t> next_block(std::size_t count);

 private:
  std::uint64_t state_;
  std::uint16_t lo_;
  std::uint16_t hi_;
};

/// Runs `attempt(ports)` with fresh port blocks until it succeeds, retrying
/// only bind failures, at most `max_attempts` times. Returns the number of
/// retries; rethrows any other error and the last bind failure.
int with_port_retry(PortPicker& picker, std::size_t count, int max_attempts,
                    const std::function<void(const std::vector<std::uint16_t>&)>&
                        attempt);

}  // namespace perfbench
