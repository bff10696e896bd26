#include "consensus/instance.hpp"

#include "common/serial.hpp"

namespace bft::consensus {

ValueHash value_hash(ByteView value) { return crypto::sha256(value); }

crypto::Hash256 write_attestation_digest(ConsensusId cid, Epoch epoch,
                                         const ValueHash& hash) {
  Writer w(48);
  w.str("bft.write");  // domain separation
  w.u64(cid);
  w.u32(epoch);
  w.raw(ByteView(hash.data(), hash.size()));
  return crypto::sha256(w.data());
}

Instance::Instance(ConsensusId cid, const QuorumSystem* quorums,
                   const InstanceMetrics& metrics)
    : cid_(cid), quorums_(quorums), metrics_(&metrics) {}

ValueHash Instance::add_value(Bytes value) {
  const ValueHash hash = value_hash(value);
  values_.emplace(hash, std::move(value));
  return hash;
}

bool Instance::has_value(const ValueHash& hash) const {
  return values_.count(hash) > 0;
}

const Bytes* Instance::value_for(const ValueHash& hash) const {
  const auto it = values_.find(hash);
  return it == values_.end() ? nullptr : &it->second;
}

bool Instance::on_propose(Epoch epoch, ReplicaId from,
                          ReplicaId expected_leader, const ValueHash& hash) {
  if (from != expected_leader) return false;
  EpochBook& book = epochs_[epoch];
  if (book.proposed.has_value()) return false;  // one proposal per epoch
  book.proposed = hash;
  return true;
}

std::optional<ValueHash> Instance::proposed_hash(Epoch epoch) const {
  const auto it = epochs_.find(epoch);
  return it == epochs_.end() ? std::nullopt : it->second.proposed;
}

Weight Instance::weight_of_votes(const std::vector<WriteVote>& votes) const {
  Weight sum = 0;
  for (const WriteVote& v : votes) sum += quorums_->weight_of(v.from);
  return sum;
}

bool Instance::on_write(Epoch epoch, ReplicaId from, const ValueHash& hash,
                        Bytes signature) {
  EpochBook& book = epochs_[epoch];
  if (book.write_votes.count(from) > 0) {  // first vote only
    metrics_->duplicate_votes.add();
    return false;
  }
  metrics_->write_votes.add();
  book.write_votes.emplace(from, hash);
  auto& votes = book.write_by_hash[hash];
  votes.push_back(WriteVote{from, std::move(signature)});
  if (!book.write_quorum.has_value() &&
      weight_of_votes(votes) >= quorums_->quorum_weight()) {
    book.write_quorum = hash;
    return true;
  }
  return false;
}

bool Instance::on_accept(Epoch epoch, ReplicaId from, const ValueHash& hash) {
  EpochBook& book = epochs_[epoch];
  if (book.accept_votes.count(from) > 0) {
    metrics_->duplicate_votes.add();
    return false;
  }
  metrics_->accept_votes.add();
  book.accept_votes.emplace(from, hash);
  auto& voters = book.accept_by_hash[hash];
  voters.insert(from);
  if (!decided_ && quorums_->weight_of_set(voters) >= quorums_->quorum_weight()) {
    decided_ = hash;
    decided_epoch_ = epoch;
    return true;
  }
  return false;
}

std::optional<ValueHash> Instance::write_quorum_hash(Epoch epoch) const {
  const auto it = epochs_.find(epoch);
  return it == epochs_.end() ? std::nullopt : it->second.write_quorum;
}

std::optional<WriteCertificate> Instance::write_certificate(Epoch epoch) const {
  const auto it = epochs_.find(epoch);
  if (it == epochs_.end() || !it->second.write_quorum.has_value()) {
    return std::nullopt;
  }
  WriteCertificate cert;
  cert.cid = cid_;
  cert.epoch = epoch;
  cert.hash = *it->second.write_quorum;
  cert.votes = it->second.write_by_hash.at(cert.hash);
  return cert;
}

Epoch Instance::highest_epoch() const {
  return epochs_.empty() ? 0 : epochs_.rbegin()->first;
}

}  // namespace bft::consensus
