// BFT-SMaRt service replica (Mod-SMaRt SMR on top of VP-Consensus instances).
//
// Implements, per the paper's §4-5:
//   * request pooling with per-client dedup and leader batching (limit 400);
//   * the PROPOSE/WRITE/ACCEPT normal case driven by consensus::Instance;
//   * WHEAT's tentative execution (deliver on WRITE quorum, ACCEPT async,
//     rollback via snapshot + replay on conflicting late decisions);
//   * checkpointing every `checkpoint_period` decisions;
//   * reconfiguration through core-executed membership-change requests;
//   * the custom-replier hook the ordering service uses to push blocks to
//     registered receivers instead of answering invoking clients.
//
// The synchronization phase (smr/synchronizer.hpp) and state transfer
// (smr/state_transfer.hpp) are units of their own; they drive consensus
// through the consensus interface below.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "consensus/instance.hpp"
#include "crypto/authenticator.hpp"
#include "runtime/actor.hpp"
#include "smr/config.hpp"
#include "smr/request_pool.hpp"
#include "smr/state_machine.hpp"
#include "smr/state_transfer.hpp"
#include "smr/synchronizer.hpp"
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
  consensus::Epoch regency() const { return regency_; }
  bool is_leader() const;
  /// True once this process is part of the active membership.
  bool is_active_member() const { return config_.contains(self_); }
  ConsensusId last_confirmed() const { return confirm_cursor_; }
  ConsensusId last_applied() const { return tentative_cursor_; }
  std::uint64_t executed_request_count() const { return executed_count_; }
  std::uint64_t decided_batch_count() const { return decided_count_; }
  bool state_transfer_in_progress() const { return transfer_.in_progress(); }
  std::size_t pending_request_count() const { return pool_.size(); }
  /// Contiguously-executed sequence watermark for `client`: every seq up to
  /// and including the returned value has executed (0 if none).
  std::uint64_t last_executed_seq(std::uint32_t client) const {
    const auto it = executed_seqs_.find(client);
    return it == executed_seqs_.end() ? 0 : it->second.low;
  }

  // --- services for the application / custom replier ---
  /// Sends an application payload to every registered receiver (§5.1's
  /// "custom replier" dissemination path).
  void push_to_receivers(ByteView payload);
  /// Sends an application payload to one process.
  void send_push(runtime::ProcessId to, ByteView payload);
  runtime::Env& runtime_env() { return env(); }
  /// True while re-executing history (state transfer): the application
  /// should suppress external effects such as block pushes.
  bool replaying_history() const { return replaying_; }
  /// Arms a timer delivered to the application's on_app_timer (local,
  /// non-replicated machinery such as batch timeouts).
  std::uint64_t set_app_timer(runtime::Duration delay);

  // --- consensus interface of the Synchronizer and StateTransfer ---
  /// Enters regency `next` after a STOP quorum: forgets our proposals for
  /// undecided slots and stops the request timer.
  void install_regency(consensus::Epoch next);
  /// Adopts a newer regency learned from SYNC or transferred state.
  void raise_regency(consensus::Epoch e) { regency_ = std::max(regency_, e); }
  void accept_proposal(ConsensusId cid, consensus::Epoch epoch,
                       runtime::ProcessId from, Bytes value);
  void request_value(ConsensusId cid, const ValueHash& hash);
  /// Leader: proposes the next batch unless a slot of ours is in flight or
  /// the proposal is held (see hold_proposal).
  void maybe_propose();
  /// Fans `payload` out to every other member, sharing one underlying buffer
  /// across all sends (no per-destination deep copy).
  void broadcast(Payload payload);
  /// The consensus instance of slot `cid`, or null if there is none.
  const consensus::Instance* instance(ConsensusId cid) const;
  /// Highest slot with consensus traffic (0 when none).
  ConsensusId highest_instance() const {
    return instances_.empty() ? 0 : instances_.rbegin()->first;
  }
  /// Encoded batch of the oldest pooled requests, in flight or not.
  Bytes oldest_batch() const;
  /// Installs state assembled by state transfer: restores its snapshot,
  /// replays its log and ends the transfer.
  void adopt_state(StateReply state);

 private:
  struct InstanceDriver {
    InstanceDriver(consensus::ConsensusId cid, const consensus::QuorumSystem* q,
                   const consensus::InstanceMetrics& votes)
        : instance(cid, q, votes) {}
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
  void handle_state_request(runtime::ProcessId from);
  void handle_value_request(runtime::ProcessId from, const ValueRequest& msg);
  void handle_value_reply(runtime::ProcessId from, const ValueReply& msg);

  // -- consensus driving --
  InstanceDriver& driver(ConsensusId cid);
  /// Membership and slot-window check of a PROPOSE / WRITE / ACCEPT; far
  /// ahead slots start a state transfer.
  bool admit_consensus_msg(runtime::ProcessId from, ConsensusId cid);
  void send_write_for(ConsensusId cid, consensus::Epoch epoch,
                      const ValueHash& hash);
  void on_write_quorum(ConsensusId cid, consensus::Epoch epoch);
  void on_decided(ConsensusId cid);

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

  // -- proposal pacing (leader) --
  /// True while a proposal of `ready` requests waits for the requests that
  /// complete the application's next output. The first short proposal arms
  /// the hold timer; the hold ends when enough requests arrive or after half
  /// the request timeout.
  bool hold_proposal(std::size_t ready);
  /// Records and disarms the current hold, if any (a batch was proposed).
  void end_hold();
  /// Disarms any hold without recording it (leader change, crash, state
  /// transfer).
  void drop_hold();

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

  // Request-liveness timer.
  std::uint64_t request_timer_ = 0;
  bool forwarded_phase_ = false;

  // Proposal pacing (leader only).
  runtime::TimePoint hold_since_ = -1;  // -1 = no proposal held
  std::uint64_t hold_timer_ = 0;

  // Custom-replier audience.
  std::set<runtime::ProcessId> receivers_;

  // Timers owned by the application (see set_app_timer).
  std::set<std::uint64_t> app_timers_;

  // Observability: instruments resolved once at construction from the
  // registry in params_.metrics (the exported one) or, without one, from a
  // registry the replica owns. Catalogue: OBSERVABILITY.md.
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Counter& requests_received;
    obs::Counter& batches_proposed;
    obs::Counter& batches_decided;
    obs::Counter& requests_executed;
    obs::Counter& pushes_sent;
    obs::Counter& regency_changes;
    obs::Counter& proposal_holds;
    obs::Gauge& pending_requests;
    obs::LatencyHistogram& batch_size;
    obs::LatencyHistogram& proposal_hold;
    obs::LatencyHistogram& propose_to_write;
    obs::LatencyHistogram& write_to_decide;
    obs::LatencyHistogram& propose_to_decide;
    consensus::InstanceMetrics votes;  // shared by all drivers
  };
  obs::RegistryOrOwned metrics_;
  Instruments m_;
  obs::TraceRing* trace_ = nullptr;

  // Declared last: both hold references to the members above.
  StateTransfer transfer_;
  Synchronizer sync_;
};

}  // namespace bft::smr
