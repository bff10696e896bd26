#include "smr/synchronizer.hpp"

#include "common/log.hpp"
#include "smr/replica.hpp"

namespace bft::smr {

using runtime::ProcessId;

namespace {

/// One STOPDATA: for (`epoch`, `cid`), signed by a member, and its
/// certificate (if any) a quorum of distinct WRITE attestations for the slot
/// that matches the attached value.
bool valid_stopdata(const StopData& sd, Epoch epoch, ConsensusId cid,
                    const ClusterConfig& config,
                    const crypto::Authenticator& auth, bool sign_writes) {
  if (sd.next_epoch != epoch || sd.cid != cid || !config.contains(sd.from)) {
    return false;
  }
  StopData unsigned_copy = sd;
  unsigned_copy.signature.clear();
  if (!auth.verify(sd.from, stopdata_digest(unsigned_copy), sd.signature)) {
    return false;
  }
  if (!sd.cert.has_value()) return true;
  const WriteCertificate& cert = *sd.cert;
  if (cert.cid != sd.cid) return false;
  const crypto::Hash256 attested =
      consensus::write_attestation_digest(cert.cid, cert.epoch, cert.hash);
  std::set<ReplicaId> voters;
  for (const auto& vote : cert.votes) {
    if (vote.from >= config.n() || !voters.insert(vote.from).second ||
        (sign_writes && !auth.verify(config.member_at(vote.from), attested,
                                     vote.signature))) {
      return false;
    }
  }
  return config.quorums().is_quorum(voters) &&
         (sd.value.empty() || consensus::value_hash(sd.value) == cert.hash);
}

}  // namespace

std::optional<SyncChoice> check_stopdata_set(const std::vector<StopData>& set,
                                             Epoch epoch, ConsensusId cid,
                                             const ClusterConfig& config,
                                             const crypto::Authenticator& auth,
                                             bool sign_writes) {
  // Count distinct senders before paying for any signature check.
  std::set<ReplicaId> senders;
  for (const StopData& sd : set) {
    if (!config.contains(sd.from) ||
        !senders.insert(config.index_of(sd.from)).second) {
      return std::nullopt;
    }
  }
  if (!config.quorums().is_quorum(senders)) return std::nullopt;
  SyncChoice choice;
  for (const StopData& sd : set) {
    if (!valid_stopdata(sd, epoch, cid, config, auth, sign_writes)) {
      return std::nullopt;
    }
    if (sd.cert && (!choice.cert || sd.cert->epoch > choice.cert->epoch)) {
      choice.cert = sd.cert;
    }
  }
  return choice;
}

void Synchronizer::start_regency_change() {
  const Epoch regency = replica_.regency();
  const Epoch next =
      std::max(regency, sent_stop_.empty() ? regency : *sent_stop_.rbegin()) + 1;
  sent_stop_.insert(next);
  stop_votes_[next].insert(replica_.self_id());
  const Stop stop{next, replica_.last_confirmed()};
  replica_.broadcast(encode(stop));
  BFT_LOG(info) << "replica " << replica_.self_id() << ": STOP for regency "
                << next;
  handle_stop(replica_.self_id(), stop);  // our vote may complete the quorum
}

void Synchronizer::handle_stop(ProcessId from, const Stop& msg) {
  const ProcessId self = replica_.self_id();
  const ClusterConfig& config = replica_.config();
  if (!replica_.is_active_member()) return;
  if (from != self && !config.contains(from)) return;
  // Catch-up hint: a peer that decided more than we did means we missed
  // decisions; arm the stall detector even if this STOP itself is stale.
  if (from != self && msg.last_decided > replica_.last_confirmed()) {
    transfer_.note_future_traffic(msg.last_decided);
  }
  if (msg.next_epoch <= replica_.regency()) return;
  auto& votes = stop_votes_[msg.next_epoch];
  votes.insert(from);

  std::set<ReplicaId> indices;
  for (ProcessId p : votes) {
    if (config.contains(p)) indices.insert(config.index_of(p));
  }
  const auto& q = config.quorums();
  if (q.is_evidence(indices) && sent_stop_.insert(msg.next_epoch).second) {
    // f+1-equivalent evidence: join the regency change.
    votes.insert(self);
    indices.insert(config.index_of(self));
    replica_.broadcast(encode(Stop{msg.next_epoch, replica_.last_confirmed()}));
  }
  if (q.is_quorum(indices)) install(msg.next_epoch);
}

void Synchronizer::install(Epoch next) {
  replica_.install_regency(next);
  active_ = true;
  cid_ = replica_.last_confirmed() + 1;
  stopdatas_.clear();
  stop_votes_.erase(stop_votes_.begin(), stop_votes_.upper_bound(next));
  runtime::Env& env = replica_.runtime_env();
  if (deadline_timer_ != 0) env.cancel_timer(deadline_timer_);
  deadline_timer_ = env.set_timer(backed_off(params_.sync_deadline));
  BFT_LOG(info) << "replica " << replica_.self_id() << ": installed regency "
                << next << " (leader " << replica_.config().leader(next) << ")";
  send_stopdata();
}

void Synchronizer::send_stopdata() {
  StopData sd{replica_.regency(), replica_.self_id(), replica_.last_confirmed(),
              cid_, std::nullopt, {}, {}};
  if (const consensus::Instance* instance = replica_.instance(cid_)) {
    // Highest-epoch write certificate we gathered for the slot in question.
    for (Epoch e = instance->highest_epoch();; --e) {
      if (auto cert = instance->write_certificate(e)) {
        if (const Bytes* value = instance->value_for(cert->hash)) sd.value = *value;
        sd.cert = std::move(cert);
        break;
      }
      if (e == 0) break;
    }
  }
  sd.signature = auth_.sign(stopdata_digest(sd));
  const ProcessId leader = replica_.config().leader(sd.next_epoch);
  if (leader == sd.from) {
    handle_stopdata(sd.from, sd);
  } else {
    replica_.runtime_env().send(leader, encode(sd));
  }
}

void Synchronizer::handle_stopdata(ProcessId from, const StopData& msg) {
  const Epoch regency = replica_.regency();
  if (!replica_.is_active_member() || !active_ ||
      replica_.config().leader(regency) != replica_.self_id()) {
    return;
  }
  // A sender behind or ahead of us reports a different slot; keep its
  // STOPDATA anyway (maybe_send_sync filters by slot) as long as it is
  // authentic for the current regency.
  if (!valid_stopdata(msg, regency, msg.cid, replica_.config(), auth_,
                      params_.sign_writes)) {
    if (msg.next_epoch == regency) {
      BFT_LOG(warn) << "replica " << replica_.self_id()
                    << ": invalid STOPDATA from " << from;
    }
    return;
  }
  stopdatas_[msg.from] = msg;
  if (msg.last_decided > replica_.last_confirmed()) {
    // We are the sync leader but lag behind this sender: catch up first so a
    // quorum of STOPDATAs can reference the same slot.
    transfer_.note_future_traffic(msg.last_decided);
  }
  maybe_send_sync();
}

void Synchronizer::maybe_send_sync() {
  const ProcessId self = replica_.self_id();
  const Epoch regency = replica_.regency();
  const ClusterConfig& config = replica_.config();
  if (!active_ || config.leader(regency) != self) return;
  std::vector<StopData> matching;
  for (const auto& [sender, sd] : stopdatas_) {
    if (sd.cid == cid_ && config.contains(sender)) matching.push_back(sd);
  }
  const std::optional<SyncChoice> choice = check_stopdata_set(
      matching, regency, cid_, config, auth_, params_.sign_writes);
  if (!choice.has_value()) return;

  Bytes proposed;
  if (choice->cert.has_value()) {
    // Find the certified value: in a STOPDATA, our own instance, or fetch it.
    const ValueHash& hash = choice->cert->hash;
    for (const StopData& sd : matching) {
      if (!sd.value.empty() && consensus::value_hash(sd.value) == hash) {
        proposed = sd.value;
        break;
      }
    }
    const consensus::Instance* instance = replica_.instance(cid_);
    const Bytes* known = instance ? instance->value_for(hash) : nullptr;
    if (proposed.empty() && known != nullptr) proposed = *known;
    if (proposed.empty()) {
      replica_.request_value(cid_, hash);
      return;  // retried from handle_value_reply
    }
  } else {
    // Nothing certified: propose a fresh batch from our pending pool (may be
    // empty — the slot must still complete to unblock the pipeline).
    proposed = replica_.oldest_batch();
  }

  Sync sync{regency, cid_, {}, proposed};
  for (const StopData& sd : matching) sync.stopdata_blobs.push_back(encode(sd));
  replica_.broadcast(encode(sync));
  replica_.accept_proposal(cid_, regency, self, std::move(proposed));
}

void Synchronizer::handle_sync(ProcessId from, const Sync& msg) {
  if (!replica_.is_active_member() || msg.new_epoch < replica_.regency() ||
      replica_.config().leader(msg.new_epoch) != from ||
      msg.cid <= replica_.last_confirmed()) {
    return;
  }
  std::vector<StopData> set;  // a blob that does not decode drops the SYNC
  for (const Bytes& blob : msg.stopdata_blobs) {
    set.push_back(decode<StopData>(blob));
  }
  const std::optional<SyncChoice> choice =
      check_stopdata_set(set, msg.new_epoch, msg.cid, replica_.config(), auth_,
                         params_.sign_writes);
  if (!choice.has_value() || !choice->admits(msg.proposed_value)) return;

  replica_.raise_regency(msg.new_epoch);
  cid_ = msg.cid;
  active_ = true;  // cleared at the slot's WRITE quorum
  replica_.accept_proposal(msg.cid, msg.new_epoch, from, msg.proposed_value);
}

void Synchronizer::on_decided(ConsensusId cid) {
  backoff_ = 0;
  if (cid == cid_ && deadline_timer_ != 0) {
    replica_.runtime_env().cancel_timer(deadline_timer_);
    deadline_timer_ = 0;
  }
}

void Synchronizer::on_cursor_moved() {
  const ConsensusId next = replica_.last_confirmed() + 1;
  if (!active_ || next <= cid_) return;
  cid_ = next;
  send_stopdata();
}

bool Synchronizer::on_timer(std::uint64_t timer_id) {
  if (timer_id != deadline_timer_) return false;
  deadline_timer_ = 0;
  if (replica_.last_confirmed() < cid_ && replica_.is_active_member()) {
    ++backoff_;
    start_regency_change();
  }
  return true;
}

void Synchronizer::on_recover() {
  // The crash wiped the deadline; a synchronization under way needs one.
  deadline_timer_ =
      active_ ? replica_.runtime_env().set_timer(params_.sync_deadline) : 0;
}

}  // namespace bft::smr
