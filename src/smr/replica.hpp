// BFT-SMaRt service replica (Mod-SMaRt SMR on top of VP-Consensus instances).
//
// Implements, per the paper's §4-5:
//   * request pooling with per-client dedup and leader batching (limit 400);
//   * the PROPOSE/WRITE/ACCEPT normal case driven by consensus::Instance;
//   * WHEAT's tentative execution (deliver on WRITE quorum, ACCEPT async,
//     rollback via snapshot + replay on conflicting late decisions);
//   * the synchronization phase (STOP / STOPDATA / SYNC) with signed,
//     transferable write certificates for regency changes;
//   * checkpointing every `checkpoint_period` decisions and state transfer
//     for laggards and joining nodes (§5.2);
//   * reconfiguration through core-executed membership-change requests;
//   * the custom-replier hook the ordering service uses to push blocks to
//     registered receivers instead of answering invoking clients.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "consensus/instance.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/ecdsa.hpp"
#include "runtime/actor.hpp"
#include "smr/config.hpp"
#include "smr/request_pool.hpp"
#include "smr/state_machine.hpp"
#include "smr/wire.hpp"

namespace bft::smr {

/// Membership-change payloads (RequestKind::reconfig).
enum class ReconfigOp : std::uint8_t { add = 1, remove = 2 };
Bytes encode_reconfig(ReconfigOp op, runtime::ProcessId node);
std::pair<ReconfigOp, runtime::ProcessId> decode_reconfig(ByteView payload);

class Replica : public runtime::Actor {
 public:
  /// `app` and `replier` are borrowed and must outlive the replica; a null
  /// replier routes replies back to the requesting client.
  Replica(runtime::ProcessId self, ClusterConfig config, ReplicaParams params,
          StateMachine* app, Replier* replier = nullptr);

  void on_start(runtime::Env& env) override;
  /// Staged-pipeline phase 1 (thread-safe, const): classifies the message,
  /// reports the offloadable decode/verify cost share, and pre-verifies
  /// FORWARD / WRITE signatures through the Authenticator so the expensive
  /// point multiplication runs on a runner worker. Touches only immutable
  /// state (params_, the authenticator, the global key cache) — never
  /// config_, which reconfiguration mutates on the consume thread.
  runtime::Verified prologue(runtime::ProcessId from,
                             Payload payload) const override;
  /// Staged-pipeline phase 2: full dispatch in protocol order. A FORWARD or
  /// WRITE is dropped unless the prologue accepted its signature.
  void consume(runtime::Verified&& verified) override;
  void on_timer(std::uint64_t timer_id) override;
  /// Warm restart after a crash fault: every timer armed before the crash is
  /// gone, so the liveness machinery (request forwarding, stall detection,
  /// state transfer, sync deadline, app timers) is re-armed here. Protocol
  /// state survives; catch-up runs through the normal state-transfer path.
  void on_recover() override;

  // --- introspection (tests, benches, application modules) ---
  runtime::ProcessId self_id() const { return self_; }
  const ClusterConfig& config() const { return config_; }
  const ReplicaParams& params() const { return params_; }
  consensus::Epoch regency() const { return regency_; }
  bool is_leader() const;
  /// True once this process is part of the active membership.
  bool is_active_member() const { return config_.contains(self_); }
  ConsensusId last_confirmed() const { return confirm_cursor_; }
  ConsensusId last_applied() const { return tentative_cursor_; }
  std::uint64_t executed_request_count() const { return executed_count_; }
  std::uint64_t decided_batch_count() const { return decided_count_; }
  bool state_transfer_in_progress() const { return transferring_; }
  std::size_t pending_request_count() const { return pool_.size(); }
  /// Contiguously-executed sequence watermark for `client`: every seq up to
  /// and including the returned value has executed (0 if none).
  std::uint64_t last_executed_seq(std::uint32_t client) const {
    const auto it = executed_seqs_.find(client);
    return it == executed_seqs_.end() ? 0 : it->second.low;
  }
  const std::set<runtime::ProcessId>& receivers() const { return receivers_; }

  // --- services for the application / custom replier ---
  /// Sends an application payload to every registered receiver (§5.1's
  /// "custom replier" dissemination path).
  void push_to_receivers(ByteView payload);
  /// Sends an application payload to one process.
  void send_push(runtime::ProcessId to, ByteView payload);
  runtime::Env& runtime_env() { return env(); }
  const CostModel& costs() const { return params_.costs; }
  /// True while re-executing history (state transfer): the application
  /// should suppress external effects such as block pushes.
  bool replaying_history() const { return replaying_; }
  /// Arms a timer delivered to the application's on_app_timer (local,
  /// non-replicated machinery such as batch timeouts).
  std::uint64_t set_app_timer(runtime::Duration delay);

 private:
  struct InstanceDriver {
    explicit InstanceDriver(consensus::ConsensusId cid,
                            const consensus::QuorumSystem* q)
        : instance(cid, q) {}
    consensus::Instance instance;
    std::set<consensus::Epoch> sent_write;
    std::set<consensus::Epoch> sent_accept;
    bool proposed_by_me = false;
    bool value_requested = false;
    // Observability timestamps (local view, -1 = not yet observed).
    runtime::TimePoint proposed_at = -1;
    runtime::TimePoint write_quorum_at = -1;
  };

  // -- message handlers --
  void handle_request(const Request& request, bool forwarded);
  void handle_forward(runtime::ProcessId from, const Forward& fwd,
                      runtime::Verified::Auth auth);
  void handle_propose(runtime::ProcessId from, const Propose& msg);
  void handle_write(runtime::ProcessId from, const WriteMsg& msg,
                    runtime::Verified::Auth auth);
  void handle_accept(runtime::ProcessId from, const AcceptMsg& msg);
  void handle_stop(runtime::ProcessId from, const Stop& msg);
  void handle_stopdata(runtime::ProcessId from, const StopData& msg);
  void handle_sync(runtime::ProcessId from, const Sync& msg);
  void handle_state_request(runtime::ProcessId from, const StateRequest& msg);
  void handle_state_reply(runtime::ProcessId from, const StateReply& msg);
  void handle_state_chunk(runtime::ProcessId from, const StateChunk& msg);
  void handle_state_chunk_ack(runtime::ProcessId from,
                              const StateChunkAck& msg);
  void handle_value_request(runtime::ProcessId from, const ValueRequest& msg);
  void handle_value_reply(runtime::ProcessId from, const ValueReply& msg);

  // -- consensus driving --
  InstanceDriver& driver(ConsensusId cid);
  void accept_proposal(ConsensusId cid, consensus::Epoch epoch,
                       runtime::ProcessId from, Bytes value);
  void send_write_for(ConsensusId cid, consensus::Epoch epoch,
                      const ValueHash& hash);
  void on_write_quorum(ConsensusId cid, consensus::Epoch epoch);
  void on_decided(ConsensusId cid);
  void maybe_propose();
  /// Fans `payload` out to every other member, sharing one underlying buffer
  /// across all sends (no per-destination deep copy).
  void broadcast(Payload payload);
  void request_value(ConsensusId cid, const ValueHash& hash);

  // -- execution pipeline --
  void try_apply();
  /// Executes confirmed decision `cid` and advances both cursors to it.
  void execute_confirmed(ConsensusId cid, ByteView value);
  void execute_batch(ConsensusId cid, ByteView value, bool tentative);
  void apply_reconfig(const Request& request);
  void rollback_and_replay();
  void maybe_checkpoint();
  Bytes make_core_snapshot() const;
  void restore_core_snapshot(ByteView snapshot);

  // -- durability (no-ops when params_.storage is null) --
  /// Write-ahead append of a confirmed decision (before it executes).
  void persist_decision(ConsensusId cid, const Bytes& value);
  /// Persists the current checkpoint (snapshot_cid_/checkpoint_snapshot_)
  /// with the app's integrity digest; prunes the WAL behind it.
  void persist_checkpoint();
  /// Restart-from-disk: newest verifiable checkpoint + contiguous WAL suffix.
  void recover_from_storage();

  // -- synchronization phase --
  /// The regency a new STOP demands: one past every regency seen or asked for.
  consensus::Epoch next_stop_regency() const;
  void start_regency_change(consensus::Epoch next);
  void install_regency(consensus::Epoch next);
  void send_stopdata();
  bool validate_stopdata(const StopData& sd, consensus::Epoch expected_epoch,
                         ConsensusId expected_cid) const;
  void maybe_send_sync();

  // -- state transfer --
  bool admit_consensus_cid(ConsensusId cid);
  void note_future_traffic(ConsensusId cid);
  void begin_state_transfer();
  /// Sends `reply` to `to` — whole when it fits in one kStateChunkBytes
  /// frame, otherwise as an acked stream of StateChunk fragments with at
  /// most kStateChunkWindow outstanding.
  void send_state_reply(runtime::ProcessId to, const StateReply& reply);
  /// Assembles the longest decided prefix vouched by f+1 replies; adopts it
  /// if it advances us. Cancels a spurious transfer when f+1 peers report
  /// nothing newer.
  void try_assemble_state();
  /// Stops collecting replies and cancels the retry timer.
  void end_state_transfer();
  void adopt_state(ConsensusId snapshot_cid, const Bytes& snapshot,
                   const std::vector<LogEntry>& log,
                   consensus::Epoch epoch_hint);

  // -- timers / misc --
  void arm_request_timer();
  void disarm_request_timer();
  void charge(runtime::Duration cost) { env().charge_cpu(cost); }

  // -- observability --
  /// Decodes `value` and emits one trace event per contained request.
  /// No-op when tracing is off or during history replay.
  void trace_batch(obs::TraceStage stage, ConsensusId cid, ByteView value);
  void update_pending_gauge();

  runtime::ProcessId self_;
  ClusterConfig config_;
  ReplicaParams params_;
  StateMachine* app_;
  Replier* replier_;
  /// Single seam for every signature this replica produces or checks
  /// (FORWARD, WRITE, STOPDATA + certificates). Shared with the prologue
  /// workers; its methods are thread-safe.
  crypto::Authenticator authenticator_;

  consensus::Epoch regency_ = 0;

  RequestPool pool_;

  std::map<ConsensusId, InstanceDriver> instances_;
  ConsensusId order_frontier_ = 0;  // highest cid allowed to seed the next proposal

  // Decided values (encoded batches) from snapshot_cid_+1 upward.
  std::map<ConsensusId, Bytes> decided_values_;
  std::map<ConsensusId, std::pair<ValueHash, Bytes>> pending_tentative_;
  std::map<ConsensusId, ValueHash> decided_awaiting_value_;

  ConsensusId confirm_cursor_ = 0;    // decisions <= are confirmed & applied
  ConsensusId tentative_cursor_ = 0;  // decisions <= are applied (maybe tentatively)
  std::map<ConsensusId, ValueHash> tentative_hashes_;
  std::optional<Bytes> rollback_snapshot_;

  // Exact record of which sequence numbers executed for one client.
  // Consensus totally orders batches but does not guarantee client-FIFO: a
  // slot proposed with older requests can be abandoned by a regency change
  // and re-decided after younger requests already executed. A max-watermark
  // would mark those older seqs "done" and drop them forever, so we keep the
  // contiguous low watermark plus the exact set executed above it. `above`
  // drains into `low` as gaps fill; its size is bounded in practice by how
  // many requests consensus can reorder (inflight slots x batch_max).
  struct ExecutedWindow {
    std::uint64_t low = 0;         // all seqs <= low have executed
    std::set<std::uint64_t> above; // executed seqs > low (non-contiguous)

    bool contains(std::uint64_t seq) const {
      return seq <= low || above.count(seq) > 0;
    }
    void insert(std::uint64_t seq) {
      if (contains(seq)) return;
      above.insert(seq);
      while (!above.empty() && *above.begin() == low + 1) {
        ++low;
        above.erase(above.begin());
      }
    }
  };
  std::map<std::uint32_t, ExecutedWindow> executed_seqs_;  // per client
  // Recent replies per client (bounded window) so retrying clients with
  // several requests in flight can all be settled from cache.
  static constexpr std::size_t kReplyCacheWindow = 64;
  std::map<std::uint32_t, std::map<std::uint64_t, Reply>> reply_cache_;
  std::uint64_t executed_count_ = 0;
  std::uint64_t decided_count_ = 0;
  bool replaying_ = false;

  // Checkpoint.
  ConsensusId snapshot_cid_ = 0;
  Bytes checkpoint_snapshot_;

  // Synchronization phase.
  std::map<consensus::Epoch, std::set<runtime::ProcessId>> stop_votes_;
  std::set<consensus::Epoch> sent_stop_;
  bool sync_in_progress_ = false;
  ConsensusId sync_cid_ = 0;
  std::map<runtime::ProcessId, Bytes> sync_stopdata_blobs_;  // leader side
  std::uint64_t sync_timer_ = 0;
  std::uint32_t timeout_backoff_ = 0;

  // Request-liveness timer.
  std::uint64_t request_timer_ = 0;
  bool forwarded_phase_ = false;

  // Stall detector: traffic for future slots while the next slot stays
  // undecided (lost ACCEPTs) eventually forces a state transfer.
  std::uint64_t stall_timer_ = 0;
  ConsensusId stall_anchor_cid_ = 0;

  // State transfer.
  bool transferring_ = false;
  std::uint64_t transfer_timer_ = 0;
  std::map<runtime::ProcessId, StateReply> transfer_replies_;

  // Chunked reply streams (one per peer in each direction). Senders keep the
  // pre-split fragments and a send/ack cursor; receivers reassemble into
  // `parts` and feed the completed bytes through handle_state_reply.
  struct ChunkSendState {
    std::uint64_t id = 0;
    std::vector<Bytes> chunks;
    std::uint32_t next_to_send = 0;
    std::uint32_t acked = 0;
  };
  struct ChunkRecvState {
    std::uint64_t id = 0;
    std::uint32_t total = 0;
    std::uint32_t received = 0;
    std::vector<Bytes> parts;
  };
  /// Sends `out`'s next fragment to `to` and advances its send cursor.
  void send_next_chunk(runtime::ProcessId to, ChunkSendState& out);
  std::map<runtime::ProcessId, ChunkSendState> chunk_out_;
  std::map<runtime::ProcessId, ChunkRecvState> chunk_in_;
  std::uint64_t next_transfer_id_ = 1;

  // Custom-replier audience.
  std::set<runtime::ProcessId> receivers_;

  // Timers owned by the application (see set_app_timer).
  std::set<std::uint64_t> app_timers_;

  // Observability handles, resolved once at construction from
  // params_.metrics (all null when no registry is wired — the hot path then
  // pays a single pointer test per site). Catalogue: OBSERVABILITY.md.
  struct MetricHandles {
    obs::Counter* requests_received = nullptr;
    obs::Counter* batches_proposed = nullptr;
    obs::Counter* batches_decided = nullptr;
    obs::Counter* requests_executed = nullptr;
    obs::Counter* pushes_sent = nullptr;
    obs::Counter* regency_changes = nullptr;
    obs::Counter* state_transfers = nullptr;
    obs::Counter* state_chunks_sent = nullptr;
    obs::Counter* state_chunks_received = nullptr;
    obs::Gauge* pending_requests = nullptr;
    obs::LatencyHistogram* batch_size = nullptr;
    obs::LatencyHistogram* propose_to_write = nullptr;
    obs::LatencyHistogram* write_to_decide = nullptr;
    obs::LatencyHistogram* propose_to_decide = nullptr;
  };
  MetricHandles m_;
  consensus::InstanceMetrics instance_metrics_;  // shared by all drivers
  obs::TraceRing* trace_ = nullptr;
};

}  // namespace bft::smr
