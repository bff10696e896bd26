// The BFT-SMaRt ordering node application (§5.1): consumes the totally
// ordered envelope stream from the SMR layer, demultiplexes it into
// per-channel blockcutters, cuts blocks, signs their headers on the worker
// pool and disseminates them to registered frontends through the replica's
// custom-replier path.
//
// Replicated state is deliberately tiny (§5.2): per channel, the next block
// sequence number, the previous header hash and the blockcutter's pending
// envelopes — which is what makes checkpoints cheap.
//
// Batch timeout: when envelopes sit in a cutter longer than `batch_timeout`,
// the node submits a time-to-cut marker through the ordering itself (the
// technique HLF's Kafka orderer uses with TTC-X messages), so every replica
// cuts the partial block at the same position deterministically.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>

#include "ledger/block.hpp"
#include "ordering/blockcutter.hpp"
#include "ordering/signer.hpp"
#include "smr/replica.hpp"

namespace bft::ordering {

/// A block paired with one node's signature over its header digest, tagged
/// with the channel whose chain it extends.
struct SignedBlock {
  std::string channel;
  ledger::Block block;
  Bytes signature;

  Bytes encode() const;
  static SignedBlock decode(ByteView data);
};

/// Payload ordered by the cluster: an envelope or a time-to-cut marker.
struct OrderedPayload {
  enum class Kind : std::uint8_t { envelope = 0, time_to_cut = 1 };
  Kind kind = Kind::envelope;
  std::string channel;
  Bytes envelope;                  // kind == envelope
  std::uint64_t cut_block_number = 0;  // kind == time_to_cut

  Bytes encode() const;
  static OrderedPayload decode(ByteView data);
};

/// Simulated CPU charge per envelope handled by a node thread (BFT and
/// crash-fault ordering nodes alike).
inline constexpr runtime::Duration kPerEnvelopeCost = runtime::usec(2);

struct OrderingNodeOptions {
  /// Channels may also be created on demand by the first envelope naming
  /// them (all replicas see the same ordered stream, so creation is
  /// deterministic).
  std::string default_channel = "channel-0";
  /// Envelopes per block (the paper evaluates 10 and 100).
  std::size_t block_size = 10;
  /// Cut a partial block when envelopes wait longer than this (0 = never).
  runtime::Duration batch_timeout = 0;
  /// HLF 1.0 sometimes requires a second signature per block (footnote 10);
  /// when set, each block costs two signature computations.
  bool double_sign = false;
  /// Observability sinks (non-owning; must outlive the node). The node
  /// always records its ordering.* instruments (OBSERVABILITY.md); `metrics`
  /// is the registry that gets exported, and when null the node records
  /// into one of its own. `trace` is optional.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
};

class OrderingNode final : public smr::StateMachine, public smr::Replier {
 public:
  OrderingNode(OrderingNodeOptions options, std::shared_ptr<BlockSigner> signer);

  /// Must be called once, after the owning replica is constructed.
  void attach(smr::Replica& replica) { replica_ = &replica; }

  // StateMachine: every ordered request payload is one OrderedPayload.
  Bytes execute(const smr::Request& request,
                const smr::ExecutionContext& ctx) override;
  Bytes snapshot() const override;
  void restore(ByteView snapshot) override;
  crypto::Hash256 integrity_digest() const override;
  /// While blocks are cut by size: `block_size` minus the fullest cutter's
  /// backlog, at least 1. Otherwise 1 (never hold): before the first block
  /// cut by size, after a block cut by the batch timeout, and while a block
  /// this node sent a time-to-cut marker for is not cut yet.
  std::size_t requests_to_next_output() const override;
  void on_app_timer(std::uint64_t token) override;
  void on_recover() override;
  void on_state_installed() override;

  // Replier: block dissemination replaces per-request replies entirely.
  void on_executed(smr::Replica&, const smr::Request&, const Bytes&,
                   const smr::ExecutionContext&) override {}
  void on_receiver_registered(smr::Replica&,
                              runtime::ProcessId receiver) override;

  std::uint64_t blocks_created() const { return blocks_created_; }
  std::uint64_t envelopes_ordered() const { return envelopes_ordered_; }
  /// Pending envelopes in one channel's cutter (0 for unknown channels).
  std::size_t pending_in(const std::string& channel) const;
  /// Pending envelopes across all channels.
  std::size_t pending_total() const;
  std::vector<std::string> channels() const;

 private:
  /// Recent blocks kept per channel for re-announcement after a state
  /// transfer. A node that skipped blocks while catching up never pushed
  /// them, and frontends need matching copies from a quorum — so on install
  /// it re-signs and re-pushes this window. The cache rides in the snapshot
  /// (block content is deterministic, so checkpoint digests still agree
  /// across replicas); it is the one bounded exception to the keep-no-chain
  /// rule of footnote 9.
  static constexpr std::size_t kPushCacheBlocks = 16;

  struct ChannelState {
    explicit ChannelState(const std::string& name, std::size_t block_size)
        : cutter(block_size),
          next_block_number(1),
          previous_header_hash(ledger::genesis_hash(name)) {}
    BlockCutter cutter;
    std::uint64_t next_block_number;
    crypto::Hash256 previous_header_hash;
    // Last kPushCacheBlocks blocks, re-announced after a state transfer.
    std::deque<ledger::Block> recent_blocks;
    // (client, seq) of the envelopes pending in `cutter`, kept only while
    // tracing. Local observability state, not replicated: a state transfer
    // rebuilds the cutter without keys, so pre-transfer envelopes simply go
    // untraced. Every cut drains the whole pending set, which keeps this
    // aligned with the cutter.
    std::deque<std::pair<std::uint32_t, std::uint64_t>> trace_keys;
    // Block our last time-to-cut marker targeted (0 = none); local.
    std::uint64_t cut_requested_for = 0;
  };
  using TraceKeys = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

  ChannelState& channel_state(const std::string& name);
  void emit_block(const std::string& channel, ChannelState& state,
                  std::vector<Bytes> envelopes);
  /// Signs `block` on the worker pool, then pushes it to `to`, or to every
  /// registered receiver when `to` is empty.
  void sign_and_push(std::string channel, ledger::Block block,
                     TraceKeys keys = {},
                     std::optional<runtime::ProcessId> to = std::nullopt);
  /// Re-signs and re-pushes every channel's recent-block window.
  void reannounce(std::optional<runtime::ProcessId> to);
  TraceKeys take_trace_keys(ChannelState& state);
  void arm_batch_timer();
  void send_cut_markers();

  OrderingNodeOptions options_;
  std::shared_ptr<BlockSigner> signer_;
  smr::Replica* replica_ = nullptr;

  std::map<std::string, ChannelState> channels_;
  std::uint64_t envelopes_ordered_ = 0;
  std::uint64_t blocks_created_ = 0;

  // Batch-timeout machinery (local, not replicated).
  bool batch_timer_armed_ = false;
  std::uint64_t marker_seq_ = 0;
  // The last block was cut by size, not by a marker.
  bool cutting_by_size_ = false;

  // Observability: instruments resolved once at construction from
  // options_.metrics or a registry of our own. Catalogue: OBSERVABILITY.md.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Counter& envelopes_ordered;
    obs::Counter& blocks_cut;
    obs::Counter& blocks_signed;
    obs::Counter& cut_markers;
    obs::Gauge& pending_envelopes;
    obs::LatencyHistogram& block_fill;
    obs::LatencyHistogram& sign_latency;
  };
  obs::RegistryOrOwned metrics_;
  Instruments m_;
};

}  // namespace bft::ordering
