// Endorsement, client assembly and committing-peer validation (steps 1-6 of
// the HLF protocol) without the ordering service in between.
#include <gtest/gtest.h>

#include "fabric/client.hpp"

#include "crypto/authenticator.hpp"

namespace bft::fabric {
namespace {

constexpr runtime::ProcessId kPeerA = 200;
constexpr runtime::ProcessId kPeerB = 201;
constexpr runtime::ProcessId kPeerC = 202;
constexpr runtime::ProcessId kClient = 300;

struct Network {
  Network()
      : policy({kPeerA, kPeerB, kPeerC}, 2),
        peer_a(kPeerA, "ch", policy),
        peer_b(kPeerB, "ch", policy),
        peer_c(kPeerC, "ch", policy),
        client(kClient, "ch", policy) {
    for (Peer* p : {&peer_a, &peer_b, &peer_c}) {
      p->install_chaincode(std::make_shared<TokenChaincode>());
      p->install_chaincode(std::make_shared<KvChaincode>());
    }
  }

  /// Endorse at a/b, assemble, and commit the envelope through all peers in
  /// a single-envelope block.
  Result<Envelope> make_tx(std::vector<std::string> args) {
    const Proposal proposal = client.make_proposal("token", std::move(args));
    return client.collect_and_assemble(proposal, {&peer_a, &peer_b});
  }

  BlockValidation commit(const std::vector<Envelope>& envelopes) {
    std::vector<Bytes> raw;
    raw.reserve(envelopes.size());
    for (const auto& e : envelopes) raw.push_back(e.encode());
    const ledger::Block block = ledger::make_block(
        peer_a.ledger().next_number(), peer_a.ledger().expected_previous_hash(),
        std::move(raw));
    auto va = peer_a.commit_block(block);
    auto vb = peer_b.commit_block(block);
    auto vc = peer_c.commit_block(block);
    EXPECT_TRUE(va.ok());
    EXPECT_TRUE(vb.ok());
    EXPECT_TRUE(vc.ok());
    EXPECT_EQ(va.value().results, vb.value().results);  // determinism
    EXPECT_EQ(va.value().results, vc.value().results);
    return va.value();
  }

  EndorsementPolicy policy;
  Peer peer_a, peer_b, peer_c;
  FabricClient client;
};

TEST(FabricPeerTest, EndorseProducesVerifiableSignature) {
  Network net;
  const Proposal p = net.client.make_proposal("token", {"open", "alice", "100"});
  auto response = net.peer_a.endorse(p);
  ASSERT_TRUE(response.ok());
  const auto& r = response.value();
  EXPECT_EQ(r.endorsement.peer, kPeerA);
  const auto sig = crypto::Signature::from_bytes(r.endorsement.signature);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(crypto::process_public_key(kPeerA).verify(
      endorsement_digest(p, r.rwset), sig.value()));
}

TEST(FabricPeerTest, EndorseRejectsUnknownChaincodeAndWrongChannel) {
  Network net;
  EXPECT_FALSE(net.peer_a.endorse(net.client.make_proposal("ghost", {"x"})).ok());
  FabricClient other(kClient + 1, "other-channel", net.policy);
  EXPECT_FALSE(net.peer_a.endorse(other.make_proposal("token", {"x"})).ok());
}

TEST(FabricPeerTest, EndorsementIsSimulationOnly) {
  Network net;
  ASSERT_TRUE(net.peer_a.endorse(
      net.client.make_proposal("token", {"open", "alice", "100"})).ok());
  // No state change before commit.
  EXPECT_EQ(net.peer_a.state().version_of("acct:alice"), 0u);
}

TEST(FabricPeerTest, FullLifecycleValidTransaction) {
  Network net;
  auto open_tx = net.make_tx({"open", "alice", "100"});
  ASSERT_TRUE(open_tx.ok());
  const auto validation = net.commit({open_tx.value()});
  ASSERT_EQ(validation.results.size(), 1u);
  EXPECT_EQ(validation.results[0], TxValidation::valid);
  EXPECT_EQ(net.peer_a.state().get("acct:alice"), to_bytes("100"));
  EXPECT_EQ(net.peer_c.state().get("acct:alice"), to_bytes("100"));
  EXPECT_EQ(net.peer_a.ledger().height(), 1u);
}

TEST(FabricPeerTest, MvccConflictDetectedOnStaleRead) {
  Network net;
  auto open_tx = net.make_tx({"open", "alice", "100"});
  ASSERT_TRUE(open_tx.ok());
  net.commit({open_tx.value()});

  auto open_bob = net.make_tx({"open", "bob", "0"});
  ASSERT_TRUE(open_bob.ok());
  net.commit({open_bob.value()});

  auto a = net.make_tx({"transfer", "alice", "bob", "10"});
  auto b = net.make_tx({"transfer", "alice", "bob", "20"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto validation = net.commit({a.value(), b.value()});
  ASSERT_EQ(validation.results.size(), 2u);
  EXPECT_EQ(validation.results[0], TxValidation::valid);
  EXPECT_EQ(validation.results[1], TxValidation::mvcc_conflict);
  // Only the first transfer applied.
  EXPECT_EQ(net.peer_a.state().get("acct:alice"), to_bytes("90"));
  EXPECT_EQ(net.peer_a.state().get("acct:bob"), to_bytes("10"));
  // The invalid transaction is still on the ledger.
  EXPECT_EQ(net.peer_a.ledger().tip().envelopes.size(), 2u);
  EXPECT_EQ(net.peer_a.committed_invalid_txs(), 1u);
}

TEST(FabricPeerTest, EndorsementPolicyFailureDetected) {
  Network net;
  const Proposal p = net.client.make_proposal("token", {"open", "alice", "5"});
  auto only_a = net.peer_a.endorse(p);
  ASSERT_TRUE(only_a.ok());
  // Assembly refuses with a single endorsement (policy needs 2)...
  EXPECT_FALSE(net.client.assemble(p, {only_a.value()}).ok());

  // ...and a committing peer refuses an envelope that sneaks through with a
  // forged second endorsement.
  Envelope forged;
  forged.proposal = p;
  forged.rwset = only_a.value().rwset;
  forged.endorsements.push_back(only_a.value().endorsement);
  forged.endorsements.push_back(Endorsement{kPeerB, Bytes(64, 0x11)});
  forged.client_signature =
      crypto::process_private_key(kClient).sign(forged.signing_digest()).to_bytes();
  EXPECT_EQ(net.peer_a.validate(forged), TxValidation::endorsement_policy_failure);
}

TEST(FabricPeerTest, BadClientSignatureDetected) {
  Network net;
  auto tx = net.make_tx({"open", "alice", "100"});
  ASSERT_TRUE(tx.ok());
  Envelope tampered = tx.value();
  tampered.client_signature[5] ^= 0xff;
  EXPECT_EQ(net.peer_a.validate(tampered), TxValidation::bad_client_signature);
  // Tampering the rwset without resigning also trips the client signature.
  Envelope resigned = tx.value();
  resigned.rwset.writes[0].value = to_bytes("999999");
  EXPECT_EQ(net.peer_a.validate(resigned), TxValidation::bad_client_signature);
}

TEST(FabricPeerTest, TamperedRwsetWithResignedClientFailsPolicy) {
  // A malicious *client* re-signs a tampered rwset; endorsement signatures
  // no longer match, so the policy check catches it.
  Network net;
  auto tx = net.make_tx({"open", "alice", "100"});
  ASSERT_TRUE(tx.ok());
  Envelope evil = tx.value();
  evil.rwset.writes[0].value = to_bytes("999999");
  evil.client_signature =
      crypto::process_private_key(kClient).sign(evil.signing_digest()).to_bytes();
  EXPECT_EQ(net.peer_a.validate(evil), TxValidation::endorsement_policy_failure);
}

TEST(FabricPeerTest, UndecodableEnvelopeMarkedBad) {
  Network net;
  const ledger::Block block = ledger::make_block(
      1, net.peer_a.ledger().expected_previous_hash(), {to_bytes("garbage")});
  auto validation = net.peer_a.commit_block(block);
  ASSERT_TRUE(validation.ok());
  ASSERT_EQ(validation.value().results.size(), 1u);
  EXPECT_EQ(validation.value().results[0], TxValidation::bad_envelope);
}

TEST(FabricPeerTest, CommitRejectsOutOfOrderBlocks) {
  Network net;
  const ledger::Block bogus = ledger::make_block(
      5, crypto::sha256(to_bytes("nope")), {});
  EXPECT_FALSE(net.peer_a.commit_block(bogus).ok());
}

TEST(FabricPeerTest, DivergentEndorsementsAreDropped) {
  Network net;
  const Proposal p = net.client.make_proposal("token", {"open", "alice", "7"});
  auto ra = net.peer_a.endorse(p);
  auto rb = net.peer_b.endorse(p);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Corrupt peer B's response payload: its rwset no longer matches A's.
  ProposalResponse divergent = rb.value();
  divergent.rwset.writes[0].value = to_bytes("1000000");
  EXPECT_FALSE(net.client.assemble(p, {ra.value(), divergent}).ok());
  // With the honest pair it assembles fine.
  EXPECT_TRUE(net.client.assemble(p, {ra.value(), rb.value()}).ok());
}

TEST(FabricPeerTest, EnvelopeEncodeDecodeRoundTrip) {
  Network net;
  auto tx = net.make_tx({"open", "alice", "100"});
  ASSERT_TRUE(tx.ok());
  const Envelope& original = tx.value();
  const Envelope decoded = Envelope::decode(original.encode());
  EXPECT_EQ(decoded.tx_id(), original.tx_id());
  EXPECT_EQ(decoded.rwset, original.rwset);
  EXPECT_EQ(decoded.client_signature, original.client_signature);
  ASSERT_EQ(decoded.endorsements.size(), original.endorsements.size());
}

}  // namespace
}  // namespace bft::fabric
