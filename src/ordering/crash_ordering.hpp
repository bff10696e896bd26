// Crash-fault-tolerant ordering baseline — a primary/backup service in the
// spirit of HLF 1.0's Kafka-based ordering (§3 "pluggable consensus"): a
// fixed primary sequences envelopes, replicates them to backups and commits
// once a majority acknowledged; every node then cuts/signs/pushes blocks
// exactly like the BFT ordering nodes.
//
// This is the baseline the paper positions itself against: decentralized and
// robust to crashes, but a single Byzantine node (the primary) can
// equivocate or censor. No primary failover is implemented (Kafka delegates
// that to ZooKeeper); the baseline exists for healthy-case comparisons.
#pragma once

#include <map>
#include <memory>

#include "ordering/blockcutter.hpp"
#include "ordering/node.hpp"
#include "ordering/signer.hpp"
#include "runtime/actor.hpp"

namespace bft::ordering {

struct CrashOrderingOptions {
  std::vector<runtime::ProcessId> nodes;  // nodes[0] is the primary
  std::string channel = "channel-0";
  std::size_t block_size = 10;
};

class CrashOrderingNode : public runtime::Actor {
 public:
  CrashOrderingNode(runtime::ProcessId self, CrashOrderingOptions options,
                    std::shared_ptr<BlockSigner> signer);

  void on_start(runtime::Env& env) override;
  void on_message(runtime::ProcessId from, ByteView payload) override;
  void on_timer(std::uint64_t) override {}

  bool is_primary() const;
  std::uint64_t committed() const { return committed_; }
  std::uint64_t blocks_created() const { return next_block_number_ - 1; }

 private:
  void handle_request(ByteView payload);
  void handle_append(runtime::ProcessId from, ByteView payload);
  void handle_ack(runtime::ProcessId from, ByteView payload);
  void handle_commit(ByteView payload);
  void advance_commit(std::uint64_t upto);
  void apply(std::uint64_t seq, Bytes envelope);
  void emit_block(std::vector<Bytes> envelopes);
  std::size_t majority() const { return options_.nodes.size() / 2 + 1; }

  runtime::ProcessId self_;
  CrashOrderingOptions options_;
  std::shared_ptr<BlockSigner> signer_;

  // Primary state.
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, std::set<runtime::ProcessId>> acks_;
  std::uint64_t commit_watermark_ = 0;

  // Shared replication state.
  std::map<std::uint64_t, Bytes> log_;
  std::uint64_t committed_ = 0;  // applied through this sequence

  // Block production (same as the BFT node).
  BlockCutter cutter_;
  std::uint64_t next_block_number_ = 1;
  crypto::Hash256 previous_header_hash_;
  std::set<runtime::ProcessId> receivers_;
};

}  // namespace bft::ordering
