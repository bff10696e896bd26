#include "fabric/client.hpp"

#include "crypto/authenticator.hpp"

namespace bft::fabric {

FabricClient::FabricClient(runtime::ProcessId id, std::string channel,
                           EndorsementPolicy policy)
    : id_(id),
      channel_(std::move(channel)),
      policy_(std::move(policy)),
      signing_key_(crypto::process_private_key(id)) {}

Proposal FabricClient::make_proposal(const std::string& chaincode,
                                     std::vector<std::string> args,
                                     std::int64_t timestamp) {
  Proposal p;
  p.channel = channel_;
  p.chaincode = chaincode;
  p.args = std::move(args);
  p.client = id_;
  p.nonce = next_nonce_++;
  p.timestamp = timestamp;
  return p;
}

Result<Envelope> FabricClient::collect_and_assemble(
    const Proposal& proposal, const std::vector<const Peer*>& endorsers) {
  std::vector<ProposalResponse> responses;
  std::string first_error;
  for (const Peer* peer : endorsers) {
    auto response = peer->endorse(proposal);
    if (response.ok()) {
      responses.push_back(std::move(response).take());
    } else if (first_error.empty()) {
      first_error = response.error();
    }
  }
  auto envelope = assemble(proposal, responses);
  if (!envelope.ok() && !first_error.empty()) {
    return Result<Envelope>::failure(envelope.error() +
                                     " (first endorsement error: " +
                                     first_error + ")");
  }
  return envelope;
}

Result<Envelope> FabricClient::assemble(
    const Proposal& proposal, const std::vector<ProposalResponse>& responses) {
  if (responses.empty()) {
    return Result<Envelope>::failure("assemble: no endorsements");
  }

  // All endorsers must have produced the identical read/write set (step 3);
  // peers with divergent state are dropped, not merged.
  const RwSet& reference = responses.front().rwset;
  std::set<runtime::ProcessId> endorsers;
  std::vector<Endorsement> endorsements;
  const crypto::Hash256 digest = endorsement_digest(proposal, reference);
  for (const ProposalResponse& r : responses) {
    if (!(r.rwset == reference)) continue;
    const auto sig = crypto::Signature::from_bytes(r.endorsement.signature);
    if (!sig.ok() || !crypto::process_public_key(r.endorsement.peer)
                          .verify(digest, sig.value())) {
      continue;  // forged or corrupted endorsement
    }
    if (endorsers.insert(r.endorsement.peer).second) {
      endorsements.push_back(r.endorsement);
    }
  }
  if (!policy_.satisfied_by(endorsers)) {
    return Result<Envelope>::failure(
        "assemble: endorsement policy unsatisfied (" +
        std::to_string(endorsers.size()) + " matching endorsements)");
  }

  Envelope envelope;
  envelope.proposal = proposal;
  envelope.rwset = reference;
  envelope.endorsements = std::move(endorsements);
  envelope.client_signature =
      signing_key_.sign(envelope.signing_digest()).to_bytes();
  return envelope;
}

}  // namespace bft::fabric
