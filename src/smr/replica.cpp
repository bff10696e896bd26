#include "smr/replica.hpp"

#include "storage/store.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace bft::smr {

using consensus::Epoch;
using consensus::ReplicaId;
using runtime::ProcessId;

Bytes encode_reconfig(ReconfigOp op, ProcessId node) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(op));
  w.u32(node);
  return std::move(w).take();
}

std::pair<ReconfigOp, ProcessId> decode_reconfig(ByteView payload) {
  Reader r(payload);
  const std::uint8_t op = r.u8();
  if (op != 1 && op != 2) throw DecodeError("bad reconfig op");
  const ProcessId node = r.u32();
  r.expect_done();
  return {static_cast<ReconfigOp>(op), node};
}

Replica::Replica(ProcessId self, ClusterConfig config, ReplicaParams params,
                 StateMachine* app, Replier* replier)
    : self_(self),
      config_(std::move(config)),
      params_(params),
      app_(app),
      replier_(replier),
      authenticator_(self),
      metrics_(params.metrics),
      m_(*metrics_),
      trace_(params.trace),
      transfer_(*this, params_, *metrics_),
      sync_(*this, transfer_, params_, authenticator_) {
  if (app_ == nullptr) throw std::invalid_argument("Replica: null state machine");
}

Replica::Instruments::Instruments(obs::MetricsRegistry& reg)
    : requests_received(
          reg.counter("smr.requests_received", "requests admitted to the pool")),
      batches_proposed(
          reg.counter("smr.batches_proposed", "PROPOSE batches sent as leader")),
      batches_decided(
          reg.counter("smr.batches_decided", "consensus decisions observed")),
      requests_executed(reg.counter("smr.requests_executed",
                                    "requests run through the state machine")),
      pushes_sent(reg.counter(
          "smr.pushes_sent", "custom-replier pushes (one per block per receiver)")),
      regency_changes(reg.counter("smr.regency_changes",
                                  "synchronization-phase completions")),
      proposal_holds(reg.counter("smr.proposal_holds",
                                 "short proposals the leader held back")),
      pending_requests(reg.gauge("smr.pending_requests", "request-pool depth")),
      batch_size(
          reg.histogram("smr.batch_size", "requests", "requests per proposal")),
      proposal_hold(reg.histogram("smr.proposal_hold_ns", "ns",
                                  "hold start to the held proposal")),
      propose_to_write(reg.histogram("smr.propose_to_write_quorum_ns", "ns",
                                     "PROPOSE seen to WRITE quorum")),
      write_to_decide(reg.histogram("smr.write_quorum_to_decide_ns", "ns",
                                    "WRITE quorum to decision")),
      propose_to_decide(reg.histogram("smr.propose_to_decide_ns", "ns",
                                      "PROPOSE seen to decision")),
      votes{reg.counter("consensus.write_votes", "WRITE votes registered"),
            reg.counter("consensus.accept_votes", "ACCEPT votes registered"),
            reg.counter("consensus.duplicate_votes",
                        "re-votes dropped (first-vote-only rule)")} {}

bool Replica::is_leader() const {
  return is_active_member() && config_.leader(regency_) == self_;
}

void Replica::on_start(runtime::Env& env) {
  Actor::on_start(env);
  checkpoint_snapshot_ = make_core_snapshot();
  if (params_.storage != nullptr) recover_from_storage();
  if (!is_active_member()) {
    // Joining node: poll the cluster for state until a reconfiguration
    // admits us (§5.2).
    transfer_.begin();
  }
}

void Replica::on_recover() {
  // The crash wiped every pending timer and worker completion. Reset the
  // bookkeeping that assumed they were armed, then restart the liveness
  // machinery. Decisions, instances and the regency survive in memory — a
  // warm restart behaves like the tail end of a long partition, and catch-up
  // uses the normal stall-detector / state-transfer path. Proposals we made
  // before the crash keep their `proposed_by_me` marks: re-proposing a slot
  // already sent to peers would be equivocation, so lost proposals are left
  // for the regency-change machinery to resolve.
  request_timer_ = 0;
  forwarded_phase_ = false;
  hold_timer_ = 0;
  drop_hold();
  app_timers_.clear();
  pool_.clear_inflight();  // batches in flight at the crash may be lost
  transfer_.on_recover();
  sync_.on_recover();
  arm_request_timer();
  maybe_propose();
  app_->on_recover();
}

namespace {

// Simulated CPU cost of handling messages (no-ops on real threads),
// calibrated in DESIGN.md §6 against the paper's Dell R410 numbers. The
// prologue shares are what the staged runner may serve off the protocol
// thread (wire decode, structural checks, signature verification); the splits
// (5/6 for requests, 2/3 for consensus messages) mirror where the real
// replica's cycles go: deserialization, digesting and MAC/signature checks
// dominate request admission (cf. the Fabric bottleneck analyses in
// PAPERS.md), leaving only the ~1 us pool insert as ordered mutation, while
// consensus handlers keep a fatter ordered tail (quorum bookkeeping, instance
// state machines). Serial runs charge prologue + epilogue as one job, so the
// totals are identical.
constexpr runtime::Duration kPerRequestCost = runtime::usec(6);
constexpr runtime::Duration kRequestPrologueCost = runtime::usec(5);
constexpr runtime::Duration kPerConsensusMsgCost = runtime::usec(15);
constexpr runtime::Duration kConsensusPrologueCost = runtime::usec(10);
/// Per-byte handling cost of proposal payloads (ns/byte); rides with the
/// prologue.
constexpr runtime::Duration kPerValueByteCost = 1;

/// Simulated CPU cost of handling one message: the full charge and the share
/// the staged prologue may serve off the protocol thread. nullopt for
/// uncharged kinds.
struct HandlingCost {
  runtime::Duration full;
  runtime::Duration prologue;
};
std::optional<HandlingCost> handling_cost(MsgKind kind, std::size_t size) {
  const auto bytes = static_cast<runtime::Duration>(size) * kPerValueByteCost;
  switch (kind) {
    case MsgKind::request:
      return HandlingCost{kPerRequestCost + bytes,
                          kRequestPrologueCost + bytes};
    case MsgKind::forward:
      return HandlingCost{kPerRequestCost, kRequestPrologueCost};
    case MsgKind::propose:
      return HandlingCost{kPerConsensusMsgCost + bytes,
                          kConsensusPrologueCost + bytes};
    case MsgKind::write:
    case MsgKind::accept:
      return HandlingCost{kPerConsensusMsgCost, kConsensusPrologueCost};
    case MsgKind::state_chunk:
      return HandlingCost{bytes, 0};
    default:
      return std::nullopt;
  }
}

}  // namespace

runtime::Verified Replica::prologue(ProcessId from, Payload payload) const {
  runtime::Verified v;
  v.from = from;
  v.payload = std::move(payload);
  const ByteView view = v.payload.view();
  const auto verdict = [&](const crypto::Hash256& digest, ByteView signature) {
    return authenticator_.verify(from, digest, signature)
               ? runtime::Verified::Auth::accepted
               : runtime::Verified::Auth::rejected;
  };
  try {
    const MsgKind kind = peek_kind(view);
    if (const auto cost = handling_cost(kind, view.size())) {
      v.prologue_cost = cost->prologue;
    }
    if (params_.sign_writes && kind == MsgKind::forward) {
      const Forward fwd = decode<Forward>(view);
      v.auth = verdict(forward_digest(fwd.request), fwd.signature);
    } else if (params_.sign_writes && kind == MsgKind::write) {
      const WriteMsg msg = decode<WriteMsg>(view);
      v.auth = verdict(
          consensus::write_attestation_digest(msg.cid, msg.epoch, msg.hash),
          msg.signature);
    }
  } catch (const DecodeError&) {
    // Malformed message: consume() charges the full cost and emits the
    // diagnostic; the verdict stays `rejected`.
    v.prologue_cost = 0;
  }
  return v;
}

void Replica::consume(runtime::Verified&& verified) {
  const ProcessId from = verified.from;
  const ByteView payload = verified.payload.view();
  try {
    const MsgKind kind = peek_kind(payload);
    if (const auto cost = handling_cost(kind, payload.size())) {
      // The runtime may have charged the prologue share to the staged
      // workers already; charge the remainder so serial (charged == 0, one
      // full-cost job) and staged totals agree.
      charge(std::max(cost->full - verified.prologue_charged,
                      runtime::Duration{0}));
    }
    switch (kind) {
      case MsgKind::request:
        handle_request(decode<Request>(payload), false);
        break;
      case MsgKind::forward:
        handle_forward(from, decode<Forward>(payload), verified.auth);
        break;
      case MsgKind::propose:
        handle_propose(from, decode<Propose>(payload));
        break;
      case MsgKind::write:
        handle_write(from, decode<WriteMsg>(payload), verified.auth);
        break;
      case MsgKind::accept:
        handle_accept(from, decode<AcceptMsg>(payload));
        break;
      case MsgKind::stop:
        sync_.handle_stop(from, decode<Stop>(payload));
        break;
      case MsgKind::stopdata:
        sync_.handle_stopdata(from, decode<StopData>(payload));
        break;
      case MsgKind::sync:
        sync_.handle_sync(from, decode<Sync>(payload));
        break;
      case MsgKind::state_request:
        (void)decode<StateRequest>(payload);
        handle_state_request(from);
        break;
      case MsgKind::state_reply:
        transfer_.handle_reply(from, decode<StateReply>(payload));
        break;
      case MsgKind::state_chunk:
        transfer_.handle_chunk(from, decode<StateChunk>(payload));
        break;
      case MsgKind::state_chunk_ack:
        transfer_.handle_chunk_ack(from, decode<StateChunkAck>(payload));
        break;
      case MsgKind::value_request:
        handle_value_request(from, decode<ValueRequest>(payload));
        break;
      case MsgKind::value_reply:
        handle_value_reply(from, decode<ValueReply>(payload));
        break;
      case MsgKind::register_receiver:
        if (receivers_.insert(from).second && replier_ != nullptr) {
          replier_->on_receiver_registered(*this, from);
        }
        break;
      default:
        break;  // not addressed to the replica role
    }
  } catch (const DecodeError&) {
    BFT_LOG(warn) << "replica " << self_ << ": malformed message from " << from;
  }
}

std::uint64_t Replica::set_app_timer(runtime::Duration delay) {
  const std::uint64_t id = env().set_timer(delay);
  app_timers_.insert(id);
  return id;
}

void Replica::on_timer(std::uint64_t timer_id) {
  if (app_timers_.erase(timer_id) > 0) {
    app_->on_app_timer(timer_id);
    return;
  }
  if (timer_id == hold_timer_) {
    hold_timer_ = 0;  // the hold has lasted its cap: propose what we have
    maybe_propose();
    return;
  }
  if (timer_id == request_timer_) {
    request_timer_ = 0;
    if (pool_.empty() || !is_active_member()) return;
    if (!forwarded_phase_) {
      // First expiry: relay pending requests to the suspected-slow leader.
      const ProcessId leader = config_.leader(regency_);
      if (leader != self_) {
        for (Request& request : pool_.lowest_keys(params_.batch_max)) {
          Forward fwd{std::move(request), {}};
          if (params_.sign_writes) {
            fwd.signature = authenticator_.sign(forward_digest(fwd.request));
          }
          env().send(leader, encode(fwd));
        }
      }
      forwarded_phase_ = true;
      request_timer_ = env().set_timer(sync_.backed_off(params_.stop_timeout));
    } else {
      // Second expiry: the leader is faulty; demand a regency change.
      forwarded_phase_ = false;
      sync_.start_regency_change();
    }
    return;
  }
  if (!sync_.on_timer(timer_id)) transfer_.on_timer(timer_id);
}

// --------------------------------------------------------------------------
// Requests and batching
// --------------------------------------------------------------------------

void Replica::handle_forward(ProcessId from, const Forward& fwd,
                             runtime::Verified::Auth auth) {
  // Forwards inject (client, seq) pairs straight into the batch pool, so
  // only accept them from cluster members, authenticated like WRITEs. A
  // forged seq would poison last_executed_seq_ and dedup-drop every later
  // genuine request from that client.
  if (!config_.contains(from)) return;
  if (params_.sign_writes && auth != runtime::Verified::Auth::accepted) {
    BFT_LOG(warn) << "replica " << self_ << ": bad FORWARD signature from "
                  << from;
    return;
  }
  handle_request(fwd.request, true);
}

void Replica::handle_request(const Request& request, bool forwarded) {
  if (!is_active_member()) return;
  const auto it = executed_seqs_.find(request.client);
  if (it != executed_seqs_.end() && it->second.contains(request.seq)) {
    // Already executed: resend the cached reply so a retrying client settles.
    if (!forwarded && replier_ == nullptr) {
      const auto cache_it = reply_cache_.find(request.client);
      if (cache_it != reply_cache_.end()) {
        const auto reply_it = cache_it->second.find(request.seq);
        if (reply_it != cache_it->second.end()) {
          env().send(request.client, encode(reply_it->second));
        }
      }
    }
    return;
  }
  if (!pool_.add(request)) return;
  m_.requests_received.add();
  update_pending_gauge();
  arm_request_timer();
  maybe_propose();
}

void Replica::maybe_propose() {
  if (transfer_.in_progress() || sync_.active() || !is_leader()) return;
  if (order_frontier_ < confirm_cursor_) order_frontier_ = confirm_cursor_;
  const ConsensusId next = order_frontier_ + 1;
  InstanceDriver& d = driver(next);
  if (d.proposed_by_me || d.instance.decided()) return;
  const std::size_t ready = pool_.proposable();
  if (ready == 0 || hold_proposal(ready)) return;

  const Batch batch{pool_.take_batch(params_.batch_max)};
  end_hold();
  d.proposed_by_me = true;
  m_.batches_proposed.add();
  m_.batch_size.record(static_cast<std::int64_t>(batch.requests.size()));

  Bytes value = batch.encode();
  charge(kPerConsensusMsgCost +
         static_cast<runtime::Duration>(value.size()) * kPerValueByteCost);
  broadcast(encode(Propose{next, regency_, value}));
  accept_proposal(next, regency_, self_, std::move(value));
}

bool Replica::hold_proposal(std::size_t ready) {
  if (ready >= app_->requests_to_next_output()) return false;
  if (hold_since_ < 0) {
    hold_since_ = env().now();
    // Half the request timeout, so a held request never makes a follower
    // suspect the leader.
    hold_timer_ = env().set_timer(params_.forward_timeout / 2);
    m_.proposal_holds.add();
  }
  return hold_timer_ != 0;
}

void Replica::end_hold() {
  if (hold_since_ < 0) return;
  m_.proposal_hold.record(env().now() - hold_since_);
  drop_hold();
}

void Replica::drop_hold() {
  if (hold_timer_ != 0) env().cancel_timer(hold_timer_);
  hold_timer_ = 0;
  hold_since_ = -1;
}

// --------------------------------------------------------------------------
// Consensus: PROPOSE / WRITE / ACCEPT
// --------------------------------------------------------------------------

Replica::InstanceDriver& Replica::driver(ConsensusId cid) {
  auto it = instances_.find(cid);
  if (it == instances_.end()) {
    it = instances_
             .emplace(std::piecewise_construct, std::forward_as_tuple(cid),
                      std::forward_as_tuple(cid, &config_.quorums(), m_.votes))
             .first;
  }
  return it->second;
}

bool Replica::admit_consensus_msg(ProcessId from, ConsensusId cid) {
  if (!is_active_member() || !config_.contains(from)) return false;
  if (cid <= confirm_cursor_) return false;  // stale slot
  if (cid > confirm_cursor_ + params_.state_transfer_gap) {
    transfer_.begin();
    // Keep recording votes within a bounded window so decisions reached
    // while the transfer is in flight are not lost; beyond it, drop
    // (Byzantine memory-exhaustion guard).
    if (cid > confirm_cursor_ + params_.state_transfer_gap * 8) return false;
  }
  transfer_.note_future_traffic(cid);
  return true;
}

void Replica::handle_propose(ProcessId from, const Propose& msg) {
  if (!admit_consensus_msg(from, msg.cid)) return;
  if (msg.epoch != regency_) return;  // old or future regency
  accept_proposal(msg.cid, msg.epoch, from, msg.value);
}

void Replica::accept_proposal(ConsensusId cid, Epoch epoch, ProcessId from,
                              Bytes value) {
  if (config_.leader(epoch) != from) return;
  try {
    (void)Batch::decode(value);  // structural validation of the proposal
  } catch (const DecodeError&) {
    BFT_LOG(warn) << "replica " << self_ << ": malformed proposal from " << from;
    return;
  }
  InstanceDriver& d = driver(cid);
  if (d.proposed_at < 0) {
    d.proposed_at = env().now();
    trace_batch(obs::TraceStage::kPropose, cid, value);
  }
  const ValueHash hash = d.instance.add_value(std::move(value));
  const ReplicaId from_idx = config_.index_of(from);
  const ReplicaId leader_idx = config_.index_of(config_.leader(epoch));
  if (d.instance.on_propose(epoch, from_idx, leader_idx, hash) &&
      epoch == regency_ && d.sent_write.count(epoch) == 0) {
    send_write_for(cid, epoch, hash);
  }
}

void Replica::send_write_for(ConsensusId cid, Epoch epoch, const ValueHash& hash) {
  InstanceDriver& d = driver(cid);
  d.sent_write.insert(epoch);
  Bytes signature;
  if (params_.sign_writes) {
    signature = authenticator_.sign(
        consensus::write_attestation_digest(cid, epoch, hash));
  }
  broadcast(encode(WriteMsg{cid, epoch, hash, signature}));
  if (d.instance.on_write(epoch, config_.index_of(self_), hash,
                          std::move(signature))) {
    on_write_quorum(cid, epoch);
  }
}

void Replica::handle_write(ProcessId from, const WriteMsg& msg,
                           runtime::Verified::Auth auth) {
  if (!admit_consensus_msg(from, msg.cid)) return;
  if (params_.sign_writes && auth != runtime::Verified::Auth::accepted) {
    BFT_LOG(warn) << "replica " << self_ << ": bad WRITE signature from " << from;
    return;
  }
  InstanceDriver& d = driver(msg.cid);
  if (d.instance.on_write(msg.epoch, config_.index_of(from), msg.hash,
                          msg.signature)) {
    on_write_quorum(msg.cid, msg.epoch);
  }
}

void Replica::on_write_quorum(ConsensusId cid, Epoch epoch) {
  InstanceDriver& d = driver(cid);
  if (epoch != regency_) return;  // certificate recorded; no action in old epochs

  if (params_.tentative_execution && order_frontier_ < cid) {
    order_frontier_ = cid;  // WHEAT: pipeline the next proposal immediately
  }
  sync_.on_write_quorum(cid);

  const auto hash = d.instance.write_quorum_hash(epoch);
  if (d.write_quorum_at < 0) {
    d.write_quorum_at = env().now();
    if (d.proposed_at >= 0) {
      m_.propose_to_write.record(d.write_quorum_at - d.proposed_at);
    }
    if (trace_ != nullptr) {
      const Bytes* value = d.instance.value_for(*hash);
      if (value != nullptr) {
        trace_batch(obs::TraceStage::kWriteQuorum, cid, *value);
      }
    }
  }
  if (d.sent_accept.count(epoch) == 0) {
    d.sent_accept.insert(epoch);
    broadcast(encode(AcceptMsg{cid, epoch, *hash}));
    if (d.instance.on_accept(epoch, config_.index_of(self_), *hash)) {
      on_decided(cid);
    }
  }
  if (params_.tentative_execution && !d.instance.decided()) {
    const Bytes* value = d.instance.value_for(*hash);
    if (value != nullptr) {
      pending_tentative_[cid] = {*hash, *value};
      try_apply();
    } else {
      request_value(cid, *hash);
    }
  }
  maybe_propose();
}

void Replica::handle_accept(ProcessId from, const AcceptMsg& msg) {
  if (!admit_consensus_msg(from, msg.cid)) return;
  InstanceDriver& d = driver(msg.cid);
  if (d.instance.on_accept(msg.epoch, config_.index_of(from), msg.hash)) {
    on_decided(msg.cid);
  }
}

void Replica::on_decided(ConsensusId cid) {
  InstanceDriver& d = driver(cid);
  ++decided_count_;
  m_.batches_decided.add();
  const runtime::TimePoint decided_at = env().now();
  if (d.proposed_at >= 0) {
    m_.propose_to_decide.record(decided_at - d.proposed_at);
  }
  if (d.write_quorum_at >= 0) {
    m_.write_to_decide.record(decided_at - d.write_quorum_at);
  }
  const ValueHash& hash = d.instance.decided_hash();
  const Bytes* value = d.instance.value_for(hash);
  if (value != nullptr) {
    trace_batch(obs::TraceStage::kAccept, cid, *value);
    decided_values_[cid] = *value;
  } else {
    decided_awaiting_value_[cid] = hash;
    request_value(cid, hash);
  }
  sync_.on_decided(cid);
  if (!params_.tentative_execution && order_frontier_ < cid) {
    order_frontier_ = cid;
  }
  // Propose the next batch before applying this decision when the pool
  // already completes the application's next output: the decided requests
  // are still flagged inflight (so they cannot be re-proposed) and execution
  // is a local upcall, so the next consensus round's network round-trip
  // overlaps with execute_batch instead of waiting behind it — BFT-SMaRt's
  // split between the message-processing and delivery threads. A shorter
  // batch waits for try_apply, after which the application's hint counts
  // this decision.
  if (pool_.proposable() >= app_->requests_to_next_output()) maybe_propose();
  try_apply();
  maybe_propose();
}

void Replica::broadcast(Payload payload) {
  // One encode, one allocation: every peer receives a refcounted handle to
  // the same buffer (the Bytes argument converted to Payload exactly once).
  for (ProcessId member : config_.members()) {
    if (member != self_) env().send(member, payload);
  }
}

// --------------------------------------------------------------------------
// Missing-value recovery
// --------------------------------------------------------------------------

void Replica::request_value(ConsensusId cid, const ValueHash& hash) {
  InstanceDriver& d = driver(cid);
  if (d.value_requested) return;
  d.value_requested = true;
  broadcast(encode(ValueRequest{cid, hash}));
}

void Replica::handle_value_request(ProcessId from, const ValueRequest& msg) {
  const consensus::Instance* inst = instance(msg.cid);
  if (const Bytes* value = inst ? inst->value_for(msg.hash) : nullptr) {
    env().send(from, encode(ValueReply{msg.cid, *value}));
    return;
  }
  const auto dec_it = decided_values_.find(msg.cid);
  if (dec_it != decided_values_.end() &&
      consensus::value_hash(dec_it->second) == msg.hash) {
    env().send(from, encode(ValueReply{msg.cid, dec_it->second}));
  }
}

void Replica::handle_value_reply(ProcessId from, const ValueReply& msg) {
  if (!config_.contains(from)) return;
  InstanceDriver& d = driver(msg.cid);
  const ValueHash hash = d.instance.add_value(msg.value);

  const auto awaiting = decided_awaiting_value_.find(msg.cid);
  if (awaiting != decided_awaiting_value_.end() && awaiting->second == hash) {
    decided_values_[msg.cid] = msg.value;
    decided_awaiting_value_.erase(awaiting);
  }
  if (params_.tentative_execution) {
    const auto wq = d.instance.write_quorum_hash(regency_);
    if (wq.has_value() && *wq == hash && !d.instance.decided()) {
      pending_tentative_[msg.cid] = {hash, msg.value};
    }
  }
  try_apply();
  sync_.maybe_send_sync();  // a SYNC may have been waiting on this value
}

// --------------------------------------------------------------------------
// Execution pipeline
// --------------------------------------------------------------------------

void Replica::try_apply() {
  bool progressed = false;

  // Confirmed decisions, in consensus order.
  for (;;) {
    const ConsensusId cid = confirm_cursor_ + 1;
    const auto it = decided_values_.find(cid);
    if (it == decided_values_.end()) break;
    const ValueHash decided_hash = consensus::value_hash(it->second);
    // Write-ahead: the decision is confirmed at this point; it must be on
    // disk before any of its effects (execution, replies, block pushes).
    persist_decision(cid, it->second);

    const auto applied = tentative_hashes_.find(cid);
    if (tentative_cursor_ >= cid && applied != tentative_hashes_.end() &&
        applied->second == decided_hash) {
      // Tentative execution confirmed in place.
      tentative_hashes_.erase(applied);
      confirm_cursor_ = cid;
      try {
        const Batch batch = Batch::decode(it->second);
        for (const Request& r : batch.requests) pool_.erase(r.client, r.seq);
      } catch (const DecodeError&) {
      }
      if (tentative_hashes_.empty()) rollback_snapshot_.reset();
    } else {
      // A decision contradicting what we executed tentatively rolls back to
      // the confirmed prefix first; then the decision executes cleanly.
      if (tentative_cursor_ >= cid) rollback_and_replay();
      execute_confirmed(cid, it->second);
    }
    pending_tentative_.erase(cid);
    progressed = true;
    maybe_checkpoint();
  }

  // Tentative (WHEAT) executions beyond the confirmed prefix.
  if (params_.tentative_execution) {
    for (;;) {
      const ConsensusId cid = tentative_cursor_ + 1;
      const auto it = pending_tentative_.find(cid);
      if (it == pending_tentative_.end()) break;
      if (!rollback_snapshot_.has_value()) {
        rollback_snapshot_ = make_core_snapshot();
      }
      execute_batch(cid, it->second.second, true);
      tentative_hashes_[cid] = it->second.first;
      tentative_cursor_ = cid;
      progressed = true;
    }
  }

  if (progressed) {
    update_pending_gauge();
    disarm_request_timer();
    arm_request_timer();
    sync_.on_cursor_moved();
  }
}

void Replica::execute_confirmed(ConsensusId cid, ByteView value) {
  execute_batch(cid, value, false);
  confirm_cursor_ = cid;
  tentative_cursor_ = std::max(tentative_cursor_, cid);
}

void Replica::execute_batch(ConsensusId cid, ByteView value, bool tentative) {
  Batch batch;
  try {
    batch = Batch::decode(value);
  } catch (const DecodeError&) {
    BFT_LOG(error) << "replica " << self_ << ": decided value is malformed";
    return;
  }
  ExecutionContext ctx;
  ctx.cid = cid;
  ctx.batch_size = batch.requests.size();
  ctx.tentative = tentative;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& request = batch.requests[i];
    ctx.index_in_batch = i;
    auto& executed = executed_seqs_[request.client];
    if (executed.contains(request.seq)) {
      // Duplicate (ordered twice or replayed). Still consume the pending
      // entry: leaving it would re-propose the request forever, and the
      // stale wall starves younger requests out of every batch.
      if (!tentative) pool_.erase(request.client, request.seq);
      continue;
    }
    executed.insert(request.seq);

    Bytes reply;
    if (request.kind == RequestKind::reconfig) {
      apply_reconfig(request);
      reply = to_bytes("reconfigured");
    } else {
      reply = app_->execute(request, ctx);
    }
    ++executed_count_;
    m_.requests_executed.add();
    auto& cache = reply_cache_[request.client];
    cache[request.seq] = Reply{request.seq, cid, reply};
    while (cache.size() > kReplyCacheWindow) cache.erase(cache.begin());
    if (!replaying_) {
      if (replier_ != nullptr) {
        replier_->on_executed(*this, request, reply, ctx);
      } else {
        env().send(request.client, encode(cache[request.seq]));
      }
    }
    if (!tentative) pool_.erase(request.client, request.seq);
  }
}

void Replica::apply_reconfig(const Request& request) {
  try {
    const auto [op, node] = decode_reconfig(request.payload);
    if (op == ReconfigOp::add && !config_.contains(node)) {
      config_ = config_.with_member_added(node);
    } else if (op == ReconfigOp::remove && config_.contains(node) &&
               config_.n() > 1) {
      config_ = config_.with_member_removed(node);
    }
    BFT_LOG(info) << "replica " << self_ << ": membership now n=" << config_.n();
  } catch (const DecodeError&) {
    BFT_LOG(warn) << "replica " << self_ << ": malformed reconfig request";
  } catch (const std::invalid_argument&) {
    BFT_LOG(warn) << "replica " << self_ << ": inapplicable reconfig request";
  }
}

void Replica::rollback_and_replay() {
  if (!rollback_snapshot_.has_value()) return;
  // The snapshot was taken at an earlier confirm cursor: restoring it rewinds
  // both cursors there, and the confirmed decisions since are re-applied.
  const ConsensusId target = confirm_cursor_;
  restore_core_snapshot(*rollback_snapshot_);
  rollback_snapshot_.reset();
  tentative_hashes_.clear();
  replaying_ = true;
  while (confirm_cursor_ < target) {
    const auto it = decided_values_.find(confirm_cursor_ + 1);
    if (it == decided_values_.end()) break;
    execute_confirmed(it->first, it->second);
  }
  replaying_ = false;
}

void Replica::maybe_checkpoint() {
  if (confirm_cursor_ == 0 || confirm_cursor_ % params_.checkpoint_period != 0) {
    return;
  }
  if (!tentative_hashes_.empty()) return;  // only checkpoint confirmed state
  snapshot_cid_ = confirm_cursor_;
  checkpoint_snapshot_ = make_core_snapshot();
  persist_checkpoint();
  decided_values_.erase(decided_values_.begin(),
                        decided_values_.upper_bound(snapshot_cid_));
  instances_.erase(instances_.begin(), instances_.upper_bound(snapshot_cid_));
}

void Replica::persist_decision(ConsensusId cid, const Bytes& value) {
  if (params_.storage == nullptr) return;
  const Status appended = params_.storage->append_decision(
      cid, ByteView(value.data(), value.size()));
  if (!appended.is_ok()) {
    // Durability is best-effort below the consensus safety argument (which
    // rests on f+1 correct replicas, not on any disk): log loudly and keep
    // serving; the next restart simply recovers less from disk.
    BFT_LOG(error) << "replica " << self_ << ": wal append failed at cid "
                   << cid << ": " << appended.error();
  }
}

void Replica::persist_checkpoint() {
  if (params_.storage == nullptr || snapshot_cid_ == 0) return;
  storage::Checkpoint cp;
  cp.cid = snapshot_cid_;
  cp.integrity = app_->integrity_digest();
  cp.snapshot = checkpoint_snapshot_;
  const Status written = params_.storage->write_checkpoint(cp);
  if (!written.is_ok()) {
    BFT_LOG(error) << "replica " << self_ << ": checkpoint persist failed at cid "
                   << snapshot_cid_ << ": " << written.error();
  }
}

void Replica::recover_from_storage() {
  storage::NodeStore& store = *params_.storage;
  // checkpoint_snapshot_ still holds the pristine pre-recovery snapshot; it
  // is the fail-closed fallback when every persisted checkpoint is refused.
  const Bytes pristine = checkpoint_snapshot_;
  bool restored = false;
  for (const storage::Checkpoint& cp : store.load_checkpoints()) {
    try {
      restore_core_snapshot(cp.snapshot);
    } catch (const std::exception& e) {
      BFT_LOG(error) << "replica " << self_ << ": persisted checkpoint at cid "
                     << cp.cid << " does not decode (" << e.what()
                     << "); trying older";
      restore_core_snapshot(pristine);
      continue;
    }
    if (app_->integrity_digest() != cp.integrity) {
      // CRC-valid bytes that decode into a different chain position than
      // they were taken from: adopting them would rejoin with a forked
      // history. Refuse and fall back (older slot, then state transfer).
      BFT_LOG(error) << "replica " << self_ << ": checkpoint at cid " << cp.cid
                     << " fails integrity verification — refusing it";
      restore_core_snapshot(pristine);
      continue;
    }
    snapshot_cid_ = cp.cid;
    checkpoint_snapshot_ = cp.snapshot;
    restored = true;
    break;
  }

  // Replay the WAL suffix contiguous with the adopted position. A gap ends
  // the usable prefix; anything beyond it is recovered via state transfer.
  // Replayed values stay in decided_values_ so this node can serve state
  // transfer to peers immediately after restarting.
  replaying_ = true;
  const std::uint64_t replayed =
      store.replay(confirm_cursor_, [&](std::uint64_t cid, ByteView value) {
        Bytes& slot = decided_values_[cid];
        slot.assign(value.begin(), value.end());
        execute_confirmed(cid, slot);
      });
  replaying_ = false;
  if (restored || replayed > 0) {
    order_frontier_ = std::max(order_frontier_, confirm_cursor_);
    BFT_LOG(info) << "replica " << self_ << ": restarted from disk at cid "
                  << confirm_cursor_ << " (checkpoint cid "
                  << (restored ? snapshot_cid_ : 0) << ", " << replayed
                  << " wal decisions replayed)";
    app_->on_state_installed();
  }
  // Recovery runs on the replica's event loop; the hosting process may be
  // waiting on this flag to read the final replay counters.
  store.mark_recovery_complete();
}

Bytes Replica::make_core_snapshot() const {
  Writer w;
  w.bytes(app_->snapshot());
  w.bytes(config_.encode());
  w.u64(confirm_cursor_);
  w.u32(static_cast<std::uint32_t>(executed_seqs_.size()));
  for (const auto& [client, window] : executed_seqs_) {
    w.u32(client);
    w.u64(window.low);
    w.u32(static_cast<std::uint32_t>(window.above.size()));
    for (const std::uint64_t seq : window.above) w.u64(seq);
  }
  std::size_t reply_entries = 0;
  for (const auto& entry : reply_cache_) reply_entries += entry.second.size();
  w.u32(static_cast<std::uint32_t>(reply_entries));
  for (const auto& [client, cache] : reply_cache_) {
    for (const auto& [seq, reply] : cache) {
      w.u32(client);
      w.u64(reply.client_seq);
      w.u64(reply.cid);
      w.bytes(reply.payload);
    }
  }
  return std::move(w).take();
}

void Replica::restore_core_snapshot(ByteView snapshot) {
  Reader r(snapshot);
  const Bytes app_state = r.bytes();
  config_ = ClusterConfig::decode(r.bytes());
  confirm_cursor_ = r.u64();
  tentative_cursor_ = confirm_cursor_;
  executed_seqs_.clear();
  const std::uint32_t seqs = r.u32();
  for (std::uint32_t i = 0; i < seqs; ++i) {
    const std::uint32_t client = r.u32();
    ExecutedWindow& window = executed_seqs_[client];
    window.low = r.u64();
    const std::uint32_t above = r.u32();
    for (std::uint32_t j = 0; j < above; ++j) window.above.insert(r.u64());
  }
  reply_cache_.clear();
  const std::uint32_t replies = r.u32();
  for (std::uint32_t i = 0; i < replies; ++i) {
    const std::uint32_t client = r.u32();
    Reply reply;
    reply.client_seq = r.u64();
    reply.cid = r.u64();
    reply.payload = r.bytes();
    reply_cache_[client][reply.client_seq] = std::move(reply);
  }
  r.expect_done();
  app_->restore(app_state);
}

// --------------------------------------------------------------------------
// Consensus interface of the synchronization phase and state transfer
// --------------------------------------------------------------------------

void Replica::install_regency(Epoch next) {
  m_.regency_changes.add();
  regency_ = next;
  for (auto& [cid, d] : instances_) {
    if (!d.instance.decided() && cid > confirm_cursor_) d.proposed_by_me = false;
  }
  pool_.clear_inflight();
  disarm_request_timer();
  drop_hold();
}

const consensus::Instance* Replica::instance(ConsensusId cid) const {
  const auto it = instances_.find(cid);
  return it == instances_.end() ? nullptr : &it->second.instance;
}

Bytes Replica::oldest_batch() const {
  return Batch{pool_.oldest(params_.batch_max)}.encode();
}

void Replica::handle_state_request(ProcessId from) {
  if (!is_active_member()) return;
  StateReply reply;
  reply.snapshot_cid = snapshot_cid_;
  reply.snapshot = checkpoint_snapshot_;
  for (const auto& [cid, value] : decided_values_) {
    if (cid > snapshot_cid_ && cid <= confirm_cursor_) {
      reply.log.push_back(LogEntry{cid, value});
    }
  }
  reply.epoch = regency_;
  transfer_.send_reply(from, reply);
}

void Replica::adopt_state(StateReply state) {
  const ConsensusId covered =
      state.log.empty() ? state.snapshot_cid : state.log.back().cid;
  BFT_LOG(info) << "replica " << self_ << ": adopting state up to cid "
                << covered;
  restore_core_snapshot(state.snapshot);
  snapshot_cid_ = state.snapshot_cid;
  checkpoint_snapshot_ = std::move(state.snapshot);
  rollback_snapshot_.reset();
  drop_hold();
  tentative_hashes_.clear();
  pending_tentative_.clear();
  decided_awaiting_value_.clear();
  // Keep decisions newer than the transferred state that we learned live
  // while the transfer was in flight; replace everything the reply covers.
  decided_values_.erase(decided_values_.begin(),
                        decided_values_.upper_bound(covered));
  instances_.erase(instances_.begin(), instances_.upper_bound(snapshot_cid_));

  // Persist the adopted position: the snapshot as a durable checkpoint (its
  // digest is computed on the freshly restored state), then each replayed
  // log entry write-ahead. The WAL accepts the upward cid jump; recovery
  // resumes from this checkpoint, so the jumped-over range never matters.
  persist_checkpoint();

  replaying_ = true;
  for (LogEntry& entry : state.log) {
    if (entry.cid != confirm_cursor_ + 1) break;  // non-contiguous: stop
    persist_decision(entry.cid, entry.value);
    const Bytes& value = decided_values_[entry.cid] = std::move(entry.value);
    execute_confirmed(entry.cid, value);
  }
  replaying_ = false;

  // The transferred state may have executed requests we still hold as
  // pending (their execution happened inside the snapshot we jumped over);
  // drop them or we would keep proposing already-ordered requests.
  pool_.erase_if([this](const Request& r) {
    const auto it = executed_seqs_.find(r.client);
    return it != executed_seqs_.end() && it->second.contains(r.seq);
  });

  order_frontier_ = std::max(order_frontier_, confirm_cursor_);
  try_apply();  // consume any surviving post-transfer decisions
  raise_regency(state.epoch);
  transfer_.end();
  app_->on_state_installed();
  if (is_active_member()) {
    sync_.on_cursor_moved();
    maybe_propose();
  }
}

// --------------------------------------------------------------------------
// Receivers and timers
// --------------------------------------------------------------------------

void Replica::push_to_receivers(ByteView payload) {
  const Payload encoded = Payload(encode_push(payload));
  m_.pushes_sent.add(receivers_.size());
  for (ProcessId receiver : receivers_) {
    env().send(receiver, encoded);
  }
}

void Replica::send_push(ProcessId to, ByteView payload) {
  m_.pushes_sent.add();
  env().send(to, encode_push(payload));
}

void Replica::arm_request_timer() {
  if (request_timer_ != 0 || pool_.empty() || !is_active_member()) return;
  forwarded_phase_ = false;
  request_timer_ = env().set_timer(params_.forward_timeout);
}

void Replica::disarm_request_timer() {
  if (request_timer_ != 0) {
    env().cancel_timer(request_timer_);
    request_timer_ = 0;
  }
  forwarded_phase_ = false;
}

// --------------------------------------------------------------------------
// Observability
// --------------------------------------------------------------------------

void Replica::trace_batch(obs::TraceStage stage, ConsensusId cid,
                          ByteView value) {
  if (trace_ == nullptr || replaying_) return;
  try {
    const Batch batch = Batch::decode(value);
    const runtime::TimePoint now = env().now();
    for (const Request& r : batch.requests) {
      trace_->record(stage, now, self_, r.client, r.seq, cid);
    }
  } catch (const DecodeError&) {
    // Already validated on every path that traces; never fatal regardless.
  }
}

void Replica::update_pending_gauge() {
  m_.pending_requests.set(static_cast<std::int64_t>(pool_.size()));
}

}  // namespace bft::smr
