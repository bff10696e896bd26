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
      trace_(params.trace) {
  if (app_ == nullptr) throw std::invalid_argument("Replica: null state machine");
  if (params_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *params_.metrics;
    m_.requests_received =
        &reg.counter("smr.requests_received", "requests admitted to the pool");
    m_.batches_proposed =
        &reg.counter("smr.batches_proposed", "PROPOSE batches sent as leader");
    m_.batches_decided =
        &reg.counter("smr.batches_decided", "consensus decisions observed");
    m_.requests_executed = &reg.counter(
        "smr.requests_executed", "requests run through the state machine");
    m_.pushes_sent = &reg.counter(
        "smr.pushes_sent", "custom-replier pushes (one per block per receiver)");
    m_.regency_changes =
        &reg.counter("smr.regency_changes", "synchronization-phase completions");
    m_.state_transfers =
        &reg.counter("smr.state_transfers", "state transfers started");
    m_.state_chunks_sent = &reg.counter(
        "smr.state_chunks_sent", "StateReply fragments streamed to peers");
    m_.state_chunks_received = &reg.counter(
        "smr.state_chunks_received", "StateReply fragments reassembled");
    m_.pending_requests =
        &reg.gauge("smr.pending_requests", "request-pool depth");
    m_.batch_size =
        &reg.histogram("smr.batch_size", "requests", "requests per proposal");
    m_.propose_to_write = &reg.histogram("smr.propose_to_write_quorum_ns", "ns",
                                         "PROPOSE seen to WRITE quorum");
    m_.write_to_decide = &reg.histogram("smr.write_quorum_to_decide_ns", "ns",
                                        "WRITE quorum to decision");
    m_.propose_to_decide = &reg.histogram("smr.propose_to_decide_ns", "ns",
                                          "PROPOSE seen to decision");
    instance_metrics_.write_votes =
        &reg.counter("consensus.write_votes", "WRITE votes registered");
    instance_metrics_.accept_votes =
        &reg.counter("consensus.accept_votes", "ACCEPT votes registered");
    instance_metrics_.duplicate_votes = &reg.counter(
        "consensus.duplicate_votes", "re-votes dropped (first-vote-only rule)");
  }
}

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
    begin_state_transfer();
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
  stall_timer_ = 0;
  stall_anchor_cid_ = 0;
  transfer_timer_ = 0;
  sync_timer_ = 0;
  app_timers_.clear();
  pool_.clear_inflight();  // batches in flight at the crash may be lost
  if (transferring_) {
    transferring_ = false;
    begin_state_transfer();  // the reply collection died with the crash
  } else if (!is_active_member()) {
    begin_state_transfer();  // learner resumes polling for admission
  }
  if (sync_in_progress_) {
    sync_timer_ = env().set_timer(params_.sync_deadline);
  }
  arm_request_timer();
  maybe_propose();
  app_->on_recover();
}

runtime::Verified Replica::prologue(ProcessId from, Payload payload) const {
  runtime::Verified v;
  v.from = from;
  v.payload = std::move(payload);
  const CostModel& costs = params_.costs;
  const ByteView view = v.payload.view();
  try {
    switch (peek_kind(view)) {
      case MsgKind::request:
        v.prologue_cost =
            std::min(costs.request_prologue, costs.per_request) +
            static_cast<runtime::Duration>(view.size()) * costs.per_value_byte;
        break;
      case MsgKind::forward:
        v.prologue_cost = std::min(costs.request_prologue, costs.per_request);
        if (params_.sign_writes) {
          const Forward fwd = decode<Forward>(view);
          v.auth = authenticator_.verify(from, forward_digest(fwd.request),
                                         fwd.signature)
                       ? runtime::Verified::Auth::accepted
                       : runtime::Verified::Auth::rejected;
        }
        break;
      case MsgKind::propose:
        v.prologue_cost =
            std::min(costs.consensus_prologue, costs.per_consensus_msg) +
            static_cast<runtime::Duration>(view.size()) * costs.per_value_byte;
        break;
      case MsgKind::write: {
        v.prologue_cost =
            std::min(costs.consensus_prologue, costs.per_consensus_msg);
        if (params_.sign_writes) {
          const WriteMsg msg = decode<WriteMsg>(view);
          v.auth = authenticator_.verify(
                       from,
                       consensus::write_attestation_digest(msg.cid, msg.epoch,
                                                           msg.hash),
                       msg.signature)
                       ? runtime::Verified::Auth::accepted
                       : runtime::Verified::Auth::rejected;
        }
        break;
      }
      case MsgKind::accept:
        v.prologue_cost =
            std::min(costs.consensus_prologue, costs.per_consensus_msg);
        break;
      default:
        break;  // uncharged kinds have no offloadable share
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
  const runtime::Duration prologue_charged = verified.prologue_charged;
  // The runtime may have charged the prologue share of this handler to the
  // staged workers already; charge the remainder here so serial (charged ==
  // 0, one full-cost job) and staged totals agree.
  const auto charge_rest = [&](runtime::Duration total) {
    charge(total > prologue_charged ? total - prologue_charged
                                    : runtime::Duration{0});
  };
  try {
    switch (peek_kind(payload)) {
      case MsgKind::request:
        charge_rest(params_.costs.per_request +
                    static_cast<runtime::Duration>(payload.size()) *
                        params_.costs.per_value_byte);
        handle_request(decode<Request>(payload), false);
        break;
      case MsgKind::forward:
        charge_rest(params_.costs.per_request);
        handle_forward(from, decode<Forward>(payload), verified.auth);
        break;
      case MsgKind::propose:
        charge_rest(params_.costs.per_consensus_msg +
                    static_cast<runtime::Duration>(payload.size()) *
                        params_.costs.per_value_byte);
        handle_propose(from, decode<Propose>(payload));
        break;
      case MsgKind::write:
        charge_rest(params_.costs.per_consensus_msg);
        handle_write(from, decode<WriteMsg>(payload), verified.auth);
        break;
      case MsgKind::accept:
        charge_rest(params_.costs.per_consensus_msg);
        handle_accept(from, decode<AcceptMsg>(payload));
        break;
      case MsgKind::stop:
        handle_stop(from, decode<Stop>(payload));
        break;
      case MsgKind::stopdata:
        handle_stopdata(from, decode<StopData>(payload));
        break;
      case MsgKind::sync:
        handle_sync(from, decode<Sync>(payload));
        break;
      case MsgKind::state_request:
        handle_state_request(from, decode<StateRequest>(payload));
        break;
      case MsgKind::state_reply:
        handle_state_reply(from, decode<StateReply>(payload));
        break;
      case MsgKind::state_chunk:
        charge(static_cast<runtime::Duration>(payload.size()) *
               params_.costs.per_value_byte);
        handle_state_chunk(from, decode<StateChunk>(payload));
        break;
      case MsgKind::state_chunk_ack:
        handle_state_chunk_ack(from, decode<StateChunkAck>(payload));
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
      request_timer_ = env().set_timer(params_.stop_timeout
                                       << std::min<std::uint32_t>(timeout_backoff_, 6));
    } else {
      // Second expiry: the leader is faulty; demand a regency change.
      forwarded_phase_ = false;
      start_regency_change(next_stop_regency());
    }
    return;
  }
  if (timer_id == sync_timer_) {
    sync_timer_ = 0;
    if (confirm_cursor_ < sync_cid_ && is_active_member()) {
      ++timeout_backoff_;
      start_regency_change(next_stop_regency());
    }
    return;
  }
  if (timer_id == stall_timer_) {
    stall_timer_ = 0;
    if (!transferring_ && is_active_member()) {
      if (confirm_cursor_ == stall_anchor_cid_) {
        // Others moved on while our next slot stayed undecided: fetch state.
        begin_state_transfer();
      } else if (!instances_.empty() &&
                 instances_.rbegin()->first > confirm_cursor_) {
        // We progressed but still trail slots with known traffic; keep
        // watching (the traffic may already have dried up).
        stall_anchor_cid_ = confirm_cursor_;
        stall_timer_ = env().set_timer(params_.stall_timeout);
      }
    }
    return;
  }
  if (timer_id == transfer_timer_) {
    transfer_timer_ = 0;
    if (transferring_) {
      transferring_ = false;
      begin_state_transfer();  // resend requests
    } else if (!is_active_member()) {
      begin_state_transfer();  // learner keeps polling
    }
    return;
  }
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
  if (m_.requests_received != nullptr) m_.requests_received->add();
  update_pending_gauge();
  arm_request_timer();
  maybe_propose();
}

void Replica::maybe_propose() {
  if (transferring_ || sync_in_progress_ || !is_leader()) return;
  if (order_frontier_ < confirm_cursor_) order_frontier_ = confirm_cursor_;
  const ConsensusId next = order_frontier_ + 1;
  InstanceDriver& d = driver(next);
  if (d.proposed_by_me || d.instance.decided()) return;

  const Batch batch{pool_.take_batch(params_.batch_max)};
  if (batch.requests.empty()) return;
  d.proposed_by_me = true;
  if (m_.batches_proposed != nullptr) m_.batches_proposed->add();
  if (m_.batch_size != nullptr) {
    m_.batch_size->record(static_cast<std::int64_t>(batch.requests.size()));
  }

  Bytes value = batch.encode();
  charge(params_.costs.per_consensus_msg +
         static_cast<runtime::Duration>(value.size()) *
             params_.costs.per_value_byte);
  broadcast(encode(Propose{next, regency_, value}));
  accept_proposal(next, regency_, self_, std::move(value));
}

// --------------------------------------------------------------------------
// Consensus: PROPOSE / WRITE / ACCEPT
// --------------------------------------------------------------------------

Replica::InstanceDriver& Replica::driver(ConsensusId cid) {
  auto it = instances_.find(cid);
  if (it == instances_.end()) {
    it = instances_
             .emplace(std::piecewise_construct, std::forward_as_tuple(cid),
                      std::forward_as_tuple(cid, &config_.quorums()))
             .first;
    if (params_.metrics != nullptr) {
      it->second.instance.set_metrics(&instance_metrics_);
    }
  }
  return it->second;
}

bool Replica::admit_consensus_cid(ConsensusId cid) {
  if (cid <= confirm_cursor_) return false;  // stale slot
  if (cid > confirm_cursor_ + params_.state_transfer_gap) {
    begin_state_transfer();
    // Keep recording votes within a bounded window so decisions reached
    // while the transfer is in flight are not lost; beyond it, drop
    // (Byzantine memory-exhaustion guard).
    if (cid > confirm_cursor_ + params_.state_transfer_gap * 8) return false;
  }
  note_future_traffic(cid);
  return true;
}

void Replica::handle_propose(ProcessId from, const Propose& msg) {
  if (!is_active_member() || !config_.contains(from)) return;
  if (!admit_consensus_cid(msg.cid)) return;
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
  if (!is_active_member() || !config_.contains(from)) return;
  if (!admit_consensus_cid(msg.cid)) return;
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
  if (sync_in_progress_ && cid == sync_cid_) sync_in_progress_ = false;

  const auto hash = d.instance.write_quorum_hash(epoch);
  if (d.write_quorum_at < 0) {
    d.write_quorum_at = env().now();
    if (m_.propose_to_write != nullptr && d.proposed_at >= 0) {
      m_.propose_to_write->record(d.write_quorum_at - d.proposed_at);
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
  if (!is_active_member() || !config_.contains(from)) return;
  if (!admit_consensus_cid(msg.cid)) return;
  InstanceDriver& d = driver(msg.cid);
  if (d.instance.on_accept(msg.epoch, config_.index_of(from), msg.hash)) {
    on_decided(msg.cid);
  }
}

void Replica::on_decided(ConsensusId cid) {
  InstanceDriver& d = driver(cid);
  ++decided_count_;
  timeout_backoff_ = 0;
  if (m_.batches_decided != nullptr) m_.batches_decided->add();
  const runtime::TimePoint decided_at = env().now();
  if (m_.propose_to_decide != nullptr && d.proposed_at >= 0) {
    m_.propose_to_decide->record(decided_at - d.proposed_at);
  }
  if (m_.write_to_decide != nullptr && d.write_quorum_at >= 0) {
    m_.write_to_decide->record(decided_at - d.write_quorum_at);
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
  if (cid == sync_cid_ && sync_timer_ != 0) {
    env().cancel_timer(sync_timer_);
    sync_timer_ = 0;
  }
  if (!params_.tentative_execution && order_frontier_ < cid) {
    order_frontier_ = cid;
  }
  // Propose the next batch before applying this decision: the decided
  // requests are still flagged inflight (so they cannot be re-proposed) and
  // execution is a local upcall, so the next consensus round's network
  // round-trip overlaps with execute_batch instead of waiting behind it —
  // BFT-SMaRt's split between the message-processing and delivery threads.
  maybe_propose();
  try_apply();
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
  const auto inst_it = instances_.find(msg.cid);
  if (inst_it != instances_.end()) {
    const Bytes* value = inst_it->second.instance.value_for(msg.hash);
    if (value != nullptr) {
      env().send(from, encode(ValueReply{msg.cid, *value}));
      return;
    }
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
  maybe_send_sync();  // a sync proposal may have been waiting on this value
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

    if (tentative_cursor_ >= cid) {
      const auto applied = tentative_hashes_.find(cid);
      if (applied != tentative_hashes_.end() && applied->second == decided_hash) {
        // Tentative execution confirmed in place.
        tentative_hashes_.erase(applied);
        confirm_cursor_ = cid;
        try {
          const Batch batch = Batch::decode(it->second);
          for (const Request& r : batch.requests) pool_.erase(r.client, r.seq);
        } catch (const DecodeError&) {
        }
        if (tentative_hashes_.empty()) rollback_snapshot_.reset();
        pending_tentative_.erase(cid);
        progressed = true;
        maybe_checkpoint();
        continue;
      }
      // The decision contradicts what we executed tentatively: roll back to
      // the confirmed prefix and fall through to a clean re-execution.
      rollback_and_replay();
    }

    execute_confirmed(cid, it->second);
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
    if (sync_in_progress_ && confirm_cursor_ + 1 > sync_cid_) {
      // Decisions caught up past the slot being synchronized: refresh our
      // STOPDATA so the new leader synchronizes the right slot.
      sync_cid_ = confirm_cursor_ + 1;
      send_stopdata();
    }
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
    if (m_.requests_executed != nullptr) m_.requests_executed->add();
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
  for (const auto& [client, cache] : reply_cache_) {
    (void)client;
    reply_entries += cache.size();
  }
  w.u32(static_cast<std::uint32_t>(reply_entries));
  for (const auto& [client, cache] : reply_cache_) {
    for (const auto& [seq, reply] : cache) {
      (void)seq;
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
// Synchronization phase (STOP / STOPDATA / SYNC)
// --------------------------------------------------------------------------

Epoch Replica::next_stop_regency() const {
  return std::max(regency_,
                  sent_stop_.empty() ? regency_ : *sent_stop_.rbegin()) + 1;
}

void Replica::start_regency_change(Epoch next) {
  if (next <= regency_ || sent_stop_.count(next) > 0) return;
  sent_stop_.insert(next);
  stop_votes_[next].insert(self_);
  broadcast(encode(Stop{next, confirm_cursor_}));
  BFT_LOG(info) << "replica " << self_ << ": STOP for regency " << next;
  // Check whether our own vote completes the quorum (tiny clusters).
  handle_stop(self_, Stop{next, confirm_cursor_});
}

void Replica::handle_stop(ProcessId from, const Stop& msg) {
  if (!is_active_member()) return;
  if (from != self_ && !config_.contains(from)) return;
  // Catch-up hint: a peer that decided more than we did means we missed
  // decisions; arm the stall detector even if this STOP itself is stale.
  if (from != self_ && msg.last_decided > confirm_cursor_) {
    note_future_traffic(msg.last_decided);
  }
  if (msg.next_epoch <= regency_) return;
  auto& votes = stop_votes_[msg.next_epoch];
  votes.insert(from);

  std::set<ReplicaId> indices;
  for (ProcessId p : votes) {
    if (config_.contains(p)) indices.insert(config_.index_of(p));
  }
  const auto& q = config_.quorums();
  if (q.is_evidence(indices) && sent_stop_.count(msg.next_epoch) == 0) {
    // f+1-equivalent evidence: join the regency change.
    sent_stop_.insert(msg.next_epoch);
    votes.insert(self_);
    indices.insert(config_.index_of(self_));
    broadcast(encode(Stop{msg.next_epoch, confirm_cursor_}));
  }
  if (q.is_quorum(indices)) {
    install_regency(msg.next_epoch);
  }
}

void Replica::install_regency(Epoch next) {
  if (m_.regency_changes != nullptr) m_.regency_changes->add();
  regency_ = next;
  sync_in_progress_ = true;
  sync_cid_ = confirm_cursor_ + 1;
  sync_stopdata_blobs_.clear();
  stop_votes_.erase(stop_votes_.begin(), stop_votes_.upper_bound(next));
  for (auto& [cid, d] : instances_) {
    if (!d.instance.decided() && cid > confirm_cursor_) d.proposed_by_me = false;
  }
  pool_.clear_inflight();
  disarm_request_timer();
  forwarded_phase_ = false;
  if (sync_timer_ != 0) env().cancel_timer(sync_timer_);
  sync_timer_ = env().set_timer(params_.sync_deadline
                                << std::min<std::uint32_t>(timeout_backoff_, 6));
  BFT_LOG(info) << "replica " << self_ << ": installed regency " << next
                << " (leader " << config_.leader(next) << ")";
  send_stopdata();
}

void Replica::send_stopdata() {
  StopData sd;
  sd.next_epoch = regency_;
  sd.from = self_;
  sd.last_decided = confirm_cursor_;
  sd.cid = sync_cid_;
  const auto inst_it = instances_.find(sync_cid_);
  if (inst_it != instances_.end()) {
    // Highest-epoch write certificate we gathered for the slot in question.
    for (Epoch e = inst_it->second.instance.highest_epoch();; --e) {
      auto cert = inst_it->second.instance.write_certificate(e);
      if (cert.has_value()) {
        const Bytes* value = inst_it->second.instance.value_for(cert->hash);
        if (value != nullptr) sd.value = *value;
        sd.cert = std::move(cert);
        break;
      }
      if (e == 0) break;
    }
  }
  sd.signature = authenticator_.sign(stopdata_digest(sd));

  const ProcessId leader = config_.leader(regency_);
  if (leader == self_) {
    handle_stopdata(self_, sd);
  } else {
    env().send(leader, encode(sd));
  }
}

bool Replica::validate_stopdata(const StopData& sd, Epoch expected_epoch,
                                ConsensusId expected_cid) const {
  if (sd.next_epoch != expected_epoch || sd.cid != expected_cid) return false;
  if (!config_.contains(sd.from)) return false;
  StopData unsigned_copy = sd;
  unsigned_copy.signature.clear();
  if (!authenticator_.verify(sd.from, stopdata_digest(unsigned_copy),
                             sd.signature)) {
    return false;
  }
  if (sd.cert.has_value()) {
    const auto& cert = *sd.cert;
    if (cert.cid != sd.cid) return false;
    std::set<ReplicaId> voters;
    for (const auto& vote : cert.votes) {
      if (vote.from >= config_.n() || voters.count(vote.from) > 0) return false;
      if (params_.sign_writes) {
        if (!authenticator_.verify(
                config_.member_at(vote.from),
                consensus::write_attestation_digest(cert.cid, cert.epoch,
                                                    cert.hash),
                vote.signature)) {
          return false;
        }
      }
      voters.insert(vote.from);
    }
    if (!config_.quorums().is_quorum(voters)) return false;
    if (!sd.value.empty() && consensus::value_hash(sd.value) != cert.hash) {
      return false;
    }
  }
  return true;
}

void Replica::handle_stopdata(ProcessId from, const StopData& msg) {
  if (!is_active_member() || config_.leader(regency_) != self_) return;
  if (!sync_in_progress_) return;
  // A sender behind or ahead of us reports a different slot; keep the blob
  // anyway (the SYNC assembly filters by slot) as long as it is authentic
  // for the current regency.
  if (!validate_stopdata(msg, regency_, msg.cid)) {
    if (msg.next_epoch == regency_) {
      BFT_LOG(warn) << "replica " << self_ << ": invalid STOPDATA from " << from;
    }
    return;
  }
  sync_stopdata_blobs_[msg.from] = encode(msg);
  if (msg.last_decided > confirm_cursor_) {
    // We are the sync leader but lag behind this sender: catch up first so a
    // quorum of STOPDATAs can reference the same slot.
    note_future_traffic(msg.last_decided);
  }
  maybe_send_sync();
}

void Replica::maybe_send_sync() {
  if (!sync_in_progress_ || config_.leader(regency_) != self_) return;
  // Only blobs that talk about the slot we are synchronizing count.
  std::vector<std::pair<Bytes, StopData>> matching;
  std::set<ReplicaId> senders;
  for (const auto& [p, blob] : sync_stopdata_blobs_) {
    const StopData sd = decode<StopData>(blob);
    if (sd.cid != sync_cid_) continue;
    if (config_.contains(p)) {
      senders.insert(config_.index_of(p));
      matching.emplace_back(blob, sd);
    }
  }
  if (!config_.quorums().is_quorum(senders)) return;

  // Select the highest-epoch certified value among the STOPDATAs.
  std::optional<WriteCertificate> chosen;
  for (const auto& [blob, sd] : matching) {
    (void)blob;
    if (sd.cert.has_value() &&
        (!chosen.has_value() || sd.cert->epoch > chosen->epoch)) {
      chosen = sd.cert;
    }
  }

  Bytes proposed;
  if (chosen.has_value()) {
    // Find the certified value: in a STOPDATA, our own instance, or fetch it.
    for (const auto& [blob, sd] : matching) {
      (void)blob;
      if (!sd.value.empty() && consensus::value_hash(sd.value) == chosen->hash) {
        proposed = sd.value;
        break;
      }
    }
    if (proposed.empty()) {
      const auto inst_it = instances_.find(sync_cid_);
      if (inst_it != instances_.end()) {
        const Bytes* v = inst_it->second.instance.value_for(chosen->hash);
        if (v != nullptr) proposed = *v;
      }
    }
    if (proposed.empty()) {
      request_value(sync_cid_, chosen->hash);
      return;  // retried from handle_value_reply
    }
  } else {
    // Nothing certified: propose a fresh batch from our pending pool (may be
    // empty — the slot must still complete to unblock the pipeline).
    proposed = Batch{pool_.oldest(params_.batch_max)}.encode();
  }

  Sync sync;
  sync.new_epoch = regency_;
  sync.cid = sync_cid_;
  for (const auto& [blob, sd] : matching) {
    (void)sd;
    sync.stopdata_blobs.push_back(blob);
  }
  sync.proposed_value = proposed;
  broadcast(encode(sync));
  handle_sync(self_, sync);
}

void Replica::handle_sync(ProcessId from, const Sync& msg) {
  if (!is_active_member()) return;
  if (msg.new_epoch < regency_) return;
  if (config_.leader(msg.new_epoch) != from) return;
  if (msg.cid <= confirm_cursor_) return;  // already settled

  // Validate the STOPDATA set: distinct members, valid signatures and
  // certificates, quorum weight.
  std::set<ReplicaId> senders;
  std::optional<WriteCertificate> chosen;
  for (const Bytes& blob : msg.stopdata_blobs) {
    StopData sd;
    try {
      sd = decode<StopData>(blob);
    } catch (const DecodeError&) {
      return;
    }
    if (!validate_stopdata(sd, msg.new_epoch, msg.cid)) return;
    const ReplicaId idx = config_.index_of(sd.from);
    if (senders.count(idx) > 0) return;
    senders.insert(idx);
    if (sd.cert.has_value() &&
        (!chosen.has_value() || sd.cert->epoch > chosen->epoch)) {
      chosen = sd.cert;
    }
  }
  if (!config_.quorums().is_quorum(senders)) return;
  if (chosen.has_value() &&
      consensus::value_hash(msg.proposed_value) != chosen->hash) {
    return;  // leader ignored a certified value: reject
  }

  if (msg.new_epoch > regency_) regency_ = msg.new_epoch;
  sync_cid_ = msg.cid;
  sync_in_progress_ = true;  // cleared at the slot's WRITE quorum
  accept_proposal(msg.cid, msg.new_epoch, from, msg.proposed_value);
}

// --------------------------------------------------------------------------
// State transfer (§5.2)
// --------------------------------------------------------------------------

void Replica::note_future_traffic(ConsensusId cid) {
  // Any traffic for an undecided slot arms the stall detector (once): if the
  // confirm cursor has not moved by expiry, this replica missed decisions it
  // can only recover via state transfer.
  if (cid <= confirm_cursor_ || transferring_ || stall_timer_ != 0) return;
  stall_anchor_cid_ = confirm_cursor_;
  stall_timer_ = env().set_timer(params_.stall_timeout);
}

void Replica::begin_state_transfer() {
  if (transferring_) return;
  transferring_ = true;
  if (m_.state_transfers != nullptr) m_.state_transfers->add();
  transfer_replies_.clear();
  chunk_in_.clear();  // partially reassembled streams belong to an old round
  for (ProcessId member : config_.members()) {
    if (member != self_) {
      env().send(member, encode(StateRequest{confirm_cursor_}));
    }
  }
  if (transfer_timer_ != 0) env().cancel_timer(transfer_timer_);
  transfer_timer_ = env().set_timer(params_.state_transfer_retry);
}

void Replica::handle_state_request(ProcessId from, const StateRequest& msg) {
  (void)msg;
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
  send_state_reply(from, reply);
}

void Replica::send_state_reply(ProcessId to, const StateReply& reply) {
  Bytes encoded = encode(reply);
  if (encoded.size() <= kStateChunkBytes) {
    env().send(to, std::move(encoded));
    return;
  }

  // Large reply: split the encoded bytes and stream them with a bounded
  // window so a bulk checkpoint cannot monopolize the link to `to`. A new
  // request from the same peer abandons any stream still in flight.
  ChunkSendState& out = chunk_out_[to];
  out.id = next_transfer_id_++;
  out.chunks.clear();
  out.next_to_send = 0;
  out.acked = 0;
  for (std::size_t off = 0; off < encoded.size(); off += kStateChunkBytes) {
    const std::size_t len = std::min(kStateChunkBytes, encoded.size() - off);
    out.chunks.emplace_back(encoded.begin() + off, encoded.begin() + off + len);
  }

  while (out.next_to_send < out.chunks.size() &&
         out.next_to_send < kStateChunkWindow) {
    send_next_chunk(to, out);
  }
}

void Replica::send_next_chunk(ProcessId to, ChunkSendState& out) {
  env().send(to, encode(StateChunk{
                     out.id, out.next_to_send,
                     static_cast<std::uint32_t>(out.chunks.size()),
                     out.chunks[out.next_to_send]}));
  if (m_.state_chunks_sent != nullptr) m_.state_chunks_sent->add();
  ++out.next_to_send;
}

void Replica::handle_state_chunk_ack(ProcessId from, const StateChunkAck& msg) {
  const auto it = chunk_out_.find(from);
  if (it == chunk_out_.end() || it->second.id != msg.transfer_id) return;
  ChunkSendState& out = it->second;
  if (msg.index >= out.chunks.size() || out.acked >= out.chunks.size()) return;
  ++out.acked;
  if (out.acked >= out.chunks.size()) {
    chunk_out_.erase(it);  // stream fully delivered
    return;
  }
  if (out.next_to_send < out.chunks.size()) send_next_chunk(from, out);
}

void Replica::handle_state_chunk(ProcessId from, const StateChunk& msg) {
  if (!transferring_ || from == self_) return;
  // A Byzantine sender controls `total`; bound what one peer can make us
  // buffer before the reassembled reply would be decoded (and dropped) anyway.
  constexpr std::uint32_t kMaxChunksPerTransfer = 1u << 16;
  if (msg.total == 0 || msg.total > kMaxChunksPerTransfer ||
      msg.index >= msg.total) {
    return;
  }
  ChunkRecvState& in = chunk_in_[from];
  if (in.id != msg.transfer_id || in.total != msg.total) {
    in = ChunkRecvState{};
    in.id = msg.transfer_id;
    in.total = msg.total;
    in.parts.resize(msg.total);
  }
  if (in.parts[msg.index].empty()) {
    in.parts[msg.index] = msg.data;
    ++in.received;
    if (m_.state_chunks_received != nullptr) m_.state_chunks_received->add();
  }
  env().send(from, encode(StateChunkAck{msg.transfer_id, msg.index}));
  if (in.received < in.total) return;

  Bytes full;
  std::size_t size = 0;
  for (const Bytes& part : in.parts) size += part.size();
  full.reserve(size);
  for (const Bytes& part : in.parts) {
    full.insert(full.end(), part.begin(), part.end());
  }
  chunk_in_.erase(from);
  try {
    handle_state_reply(from, decode<StateReply>(full));
  } catch (const DecodeError&) {
    BFT_LOG(warn) << "replica " << self_
                  << ": reassembled state reply from " << from
                  << " does not decode; dropping";
  }
}

void Replica::handle_state_reply(ProcessId from, const StateReply& msg) {
  if (!transferring_ || from == self_) return;
  transfer_replies_[from] = msg;
  try_assemble_state();
}

void Replica::try_assemble_state() {
  const std::uint32_t needed = config_.quorums().count_f_plus_1();
  if (transfer_replies_.size() < needed) return;

  // Group replies by snapshot identity. A snapshot (and every log entry we
  // adopt on top of it) must be vouched by f+1 distinct replicas, so at least
  // one correct one.
  std::map<std::string, std::vector<const StateReply*>> groups;
  for (const auto& [sender, reply] : transfer_replies_) {
    (void)sender;
    Writer w;
    w.u64(reply.snapshot_cid);
    w.bytes(reply.snapshot);
    groups[crypto::hash_hex(crypto::sha256(w.data()))].push_back(&reply);
  }

  // Best candidate: the (snapshot, agreed log prefix) with furthest coverage.
  const StateReply* best_base = nullptr;
  std::vector<LogEntry> best_log;
  ConsensusId best_covered = confirm_cursor_;
  Epoch best_epoch = 0;

  for (const auto& [digest, replies] : groups) {
    (void)digest;
    if (replies.size() < needed) continue;
    const StateReply* base = replies.front();
    std::vector<LogEntry> agreed;
    ConsensusId cid = base->snapshot_cid;
    for (;;) {
      const ConsensusId next = cid + 1;
      // Tally values proposed for `next` across the group.
      std::map<std::string, std::pair<std::uint32_t, const Bytes*>> votes;
      for (const StateReply* r : replies) {
        for (const LogEntry& e : r->log) {
          if (e.cid == next) {
            auto& slot = votes[crypto::hash_hex(crypto::sha256(e.value))];
            ++slot.first;
            slot.second = &e.value;
            break;
          }
        }
      }
      const Bytes* winner = nullptr;
      for (const auto& [vh, slot] : votes) {
        (void)vh;
        if (slot.first >= needed) {
          winner = slot.second;
          break;
        }
      }
      if (winner == nullptr) break;
      agreed.push_back(LogEntry{next, *winner});
      cid = next;
    }
    if (cid > best_covered) {
      best_base = base;
      best_log = std::move(agreed);
      best_covered = cid;
      for (const StateReply* r : replies) best_epoch = std::max(best_epoch, r->epoch);
    }
  }

  if (best_base != nullptr) {
    adopt_state(best_base->snapshot_cid, best_base->snapshot, best_log, best_epoch);
    return;
  }

  // Nothing advances us. If every member answered, the transfer was
  // spurious; cancel it so proposing is not blocked forever.
  if (transfer_replies_.size() + 1 >= config_.n() && is_active_member()) {
    end_state_transfer();
    maybe_propose();
  }
}

void Replica::end_state_transfer() {
  transferring_ = false;
  transfer_replies_.clear();
  chunk_in_.clear();
  if (transfer_timer_ != 0) {
    env().cancel_timer(transfer_timer_);
    transfer_timer_ = 0;
  }
}

void Replica::adopt_state(ConsensusId snapshot_cid, const Bytes& snapshot,
                          const std::vector<LogEntry>& log, Epoch epoch_hint) {
  BFT_LOG(info) << "replica " << self_ << ": adopting state up to cid "
                << (log.empty() ? snapshot_cid : log.back().cid);
  restore_core_snapshot(snapshot);
  snapshot_cid_ = snapshot_cid;
  checkpoint_snapshot_ = snapshot;
  rollback_snapshot_.reset();
  tentative_hashes_.clear();
  pending_tentative_.clear();
  decided_awaiting_value_.clear();
  const ConsensusId covered = log.empty() ? snapshot_cid : log.back().cid;
  // Keep decisions newer than the transferred state that we learned live
  // while the transfer was in flight; replace everything the reply covers.
  decided_values_.erase(decided_values_.begin(),
                        decided_values_.upper_bound(covered));
  instances_.erase(instances_.begin(), instances_.upper_bound(snapshot_cid));

  // Persist the adopted position: the snapshot as a durable checkpoint (its
  // digest is computed on the freshly restored state), then each replayed
  // log entry write-ahead. The WAL accepts the upward cid jump; recovery
  // resumes from this checkpoint, so the jumped-over range never matters.
  persist_checkpoint();

  replaying_ = true;
  for (const LogEntry& entry : log) {
    if (entry.cid != confirm_cursor_ + 1) break;  // non-contiguous: stop
    persist_decision(entry.cid, entry.value);
    decided_values_[entry.cid] = entry.value;
    execute_confirmed(entry.cid, entry.value);
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
  regency_ = std::max(regency_, epoch_hint);
  end_state_transfer();
  app_->on_state_installed();
  if (!is_active_member()) {
    // Still a learner: keep polling until a reconfiguration admits us.
    transfer_timer_ = env().set_timer(params_.state_transfer_retry);
  } else if (sync_in_progress_) {
    // Our view of the slot under synchronization moved: refresh the leader.
    sync_cid_ = confirm_cursor_ + 1;
    send_stopdata();
  } else {
    maybe_propose();
  }
}

// --------------------------------------------------------------------------
// Receivers and timers
// --------------------------------------------------------------------------

void Replica::push_to_receivers(ByteView payload) {
  const Payload encoded = Payload(encode_push(payload));
  if (m_.pushes_sent != nullptr) {
    m_.pushes_sent->add(receivers_.size());
  }
  for (ProcessId receiver : receivers_) {
    env().send(receiver, encoded);
  }
}

void Replica::send_push(ProcessId to, ByteView payload) {
  if (m_.pushes_sent != nullptr) m_.pushes_sent->add();
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
  if (m_.pending_requests != nullptr) {
    m_.pending_requests->set(static_cast<std::int64_t>(pool_.size()));
  }
}

}  // namespace bft::smr
