// Ordering-service frontend (§5): relays envelopes from the HLF side into
// the ordering cluster and collects the signed blocks the nodes push back.
//
// A block is delivered once 2f+1 nodes sent byte-identical copies (without
// signature verification), or f+1 with verification (footnote 8). Under
// WHEAT's tentative execution the count generalizes to a weighted quorum of
// matching copies, mirroring the client rule of §4. Delivery is in block
// order; the frontend also measures submit-to-delivery latency for the
// envelopes it injected (the metric of Figures 8 and 9).
#pragma once

#include <functional>
#include <map>

#include "ledger/block.hpp"
#include "ordering/node.hpp"
#include "runtime/actor.hpp"
#include "smr/config.hpp"
#include "util/stats.hpp"

namespace bft::ordering {

struct FrontendOptions {
  std::string channel = "channel-0";
  /// Verify block signatures: f+1 matching signed copies suffice.
  bool verify_signatures = false;
  /// WHEAT tentative execution: require a weighted quorum of matching copies.
  bool weighted_quorum = false;
  /// Signature backend for verification (must match the nodes' backend).
  std::shared_ptr<BlockSigner> verifier;
  /// Record submit->delivery latency samples for tracked envelopes.
  bool track_latency = true;
  /// Register with the ordering nodes to receive block pushes. Submit-only
  /// frontends (load generators) disable this so they do not add fan-out.
  bool receive_blocks = true;
  /// Non-zero: accept a block after exactly this many matching copies
  /// (overrides the 2f+1 / f+1 / weighted rules; crash-fault baselines use 1).
  std::size_t required_copies = 0;
  /// Observability sinks (non-owning; must outlive the frontend). The
  /// frontend always records its frontend.* instruments (OBSERVABILITY.md);
  /// `metrics` is the registry that gets exported, and when null the
  /// frontend records into one of its own. Several frontends may share one
  /// registry; their counters then aggregate. `trace` is optional.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
};

class Frontend : public runtime::Actor {
 public:
  using BlockCallback = std::function<void(const ledger::Block&)>;

  Frontend(smr::ClusterConfig cluster, FrontendOptions options,
           BlockCallback on_block = nullptr);

  void on_start(runtime::Env& env) override;
  /// Staged-pipeline phase 1 (thread-safe, const): pre-verifies the block
  /// signature of a push through the shared verifier when verify_signatures
  /// is on, so the ECDSA check runs on a runner worker. Reads only
  /// construction-time state (options_, cluster_).
  runtime::Verified prologue(runtime::ProcessId from,
                             Payload payload) const override;
  /// Phase 2: tallies a push. With verify_signatures, a copy counts only if
  /// the prologue accepted its signature.
  void consume(runtime::Verified&& verified) override;
  void on_timer(std::uint64_t) override {}

  /// Relays one envelope to the ordering cluster (fire-and-forget broadcast,
  /// like the shim's asynchronous BFT-SMaRt invocations). Call from the
  /// actor's execution context.
  void submit(Bytes envelope);

  // --- statistics ---
  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t delivered_blocks() const { return delivered_blocks_; }
  std::uint64_t delivered_envelopes() const { return delivered_envelopes_; }
  /// Latency samples in milliseconds (own envelopes only).
  const Histogram& latencies() const { return latencies_; }
  runtime::TimePoint last_delivery_time() const { return last_delivery_; }

 private:
  struct Tally {
    std::set<runtime::ProcessId> senders;
    ledger::Block block;
    bool has_block = false;
  };

  bool quorum_reached(const Tally& tally) const;
  void deliver(const ledger::Block& block);

  smr::ClusterConfig cluster_;
  FrontendOptions options_;
  BlockCallback on_block_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t submitted_ = 0;

  // number -> block digest -> tally
  std::map<std::uint64_t, std::map<crypto::Hash256, Tally>> tallies_;
  std::uint64_t next_delivery_number_ = 1;
  std::map<std::uint64_t, ledger::Block> ready_;  // quorum reached, not in order yet

  struct Inflight {
    runtime::TimePoint at = 0;  // submit time
    std::uint64_t seq = 0;      // request sequence (trace key)
  };
  std::map<crypto::Hash256, Inflight> inflight_;  // envelope digest -> submit info
  Histogram latencies_;
  std::uint64_t delivered_blocks_ = 0;
  std::uint64_t delivered_envelopes_ = 0;
  runtime::TimePoint last_delivery_ = -1;

  // Observability: instruments resolved once at construction from
  // options_.metrics or a registry of our own. Catalogue: OBSERVABILITY.md.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Counter& submitted;
    obs::Counter& pushes_received;
    obs::Counter& delivered_blocks;
    obs::Counter& delivered_envelopes;
    obs::LatencyHistogram& submit_to_deliver;
  };
  obs::RegistryOrOwned metrics_;
  Instruments m_;
};

}  // namespace bft::ordering
