#include "fabric/peer.hpp"

#include "crypto/authenticator.hpp"  // process signing keys (simulated PKI)

namespace bft::fabric {

std::size_t BlockValidation::valid_count() const {
  std::size_t n = 0;
  for (TxValidation v : results) {
    if (v == TxValidation::valid) ++n;
  }
  return n;
}

Peer::Peer(runtime::ProcessId id, std::string channel, EndorsementPolicy policy)
    : id_(id),
      channel_(std::move(channel)),
      policy_(std::move(policy)),
      signing_key_(crypto::process_private_key(id)),
      ledger_(channel_) {}

void Peer::install_chaincode(std::shared_ptr<Chaincode> chaincode) {
  if (chaincode == nullptr) {
    throw std::invalid_argument("install_chaincode: null chaincode");
  }
  chaincodes_[chaincode->name()] = std::move(chaincode);
}

Result<ProposalResponse> Peer::endorse(const Proposal& proposal) const {
  if (proposal.channel != channel_) {
    return Result<ProposalResponse>::failure("endorse: wrong channel");
  }
  const auto it = chaincodes_.find(proposal.chaincode);
  if (it == chaincodes_.end()) {
    return Result<ProposalResponse>::failure("endorse: unknown chaincode " +
                                             proposal.chaincode);
  }
  ChaincodeStub stub(state_);
  auto result = it->second->invoke(stub, proposal.args);
  if (!result.ok()) {
    return Result<ProposalResponse>::failure("endorse: " + result.error());
  }
  ProposalResponse response;
  response.rwset = stub.take_rwset(std::move(result).take());
  response.endorsement.peer = id_;
  response.endorsement.signature =
      signing_key_.sign(endorsement_digest(proposal, response.rwset)).to_bytes();
  return response;
}

TxValidation Peer::validate(const Envelope& envelope) const {
  // 1. Client signature over the assembled envelope.
  const auto client_sig = crypto::Signature::from_bytes(envelope.client_signature);
  if (!client_sig.ok() ||
      !crypto::process_public_key(envelope.proposal.client)
           .verify(envelope.signing_digest(), client_sig.value())) {
    return TxValidation::bad_client_signature;
  }

  // 2. Endorsement policy over verified endorsement signatures.
  const crypto::Hash256 digest =
      endorsement_digest(envelope.proposal, envelope.rwset);
  std::set<runtime::ProcessId> valid_endorsers;
  for (const Endorsement& e : envelope.endorsements) {
    if (!policy_.is_member(e.peer)) continue;
    const auto sig = crypto::Signature::from_bytes(e.signature);
    if (sig.ok() &&
        crypto::process_public_key(e.peer).verify(digest, sig.value())) {
      valid_endorsers.insert(e.peer);
    }
  }
  if (!policy_.satisfied_by(valid_endorsers)) {
    return TxValidation::endorsement_policy_failure;
  }

  // 3. MVCC: every read must still see the version it saw at simulation.
  for (const ReadEntry& read : envelope.rwset.reads) {
    if (state_.version_of(read.key) != read.version) {
      return TxValidation::mvcc_conflict;
    }
  }
  return TxValidation::valid;
}

Result<BlockValidation> Peer::commit_block(const ledger::Block& block) {
  // Chain the block first; a block that does not extend the ledger must not
  // touch the state.
  const Status appended = ledger_.append(block);
  if (!appended.is_ok()) {
    return Result<BlockValidation>::failure("commit_block: " + appended.error());
  }

  BlockValidation record;
  record.block_number = block.header.number;
  record.results.reserve(block.envelopes.size());

  // Validation is sequential within the block: a transaction sees the writes
  // of valid transactions that precede it (HLF's committer semantics).
  for (const Bytes& raw : block.envelopes) {
    Envelope envelope;
    try {
      envelope = Envelope::decode(raw);
    } catch (const DecodeError&) {
      record.results.push_back(TxValidation::bad_envelope);
      continue;
    }
    const TxValidation verdict = validate(envelope);
    record.results.push_back(verdict);
    if (verdict != TxValidation::valid) continue;
    for (const WriteEntry& write : envelope.rwset.writes) {
      if (write.is_delete) {
        state_.erase(write.key);
      } else {
        state_.put(write.key, write.value);
      }
    }
  }

  // Invalid transactions stay on the ledger too (step 6) — they were
  // appended above, merely not executed.
  for (TxValidation v : record.results) {
    if (v == TxValidation::valid) {
      ++committed_valid_;
    } else {
      ++committed_invalid_;
    }
  }
  history_.push_back(record);
  return record;
}

}  // namespace bft::fabric
