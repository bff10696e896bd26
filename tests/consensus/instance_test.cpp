#include "consensus/instance.hpp"

#include <gtest/gtest.h>

namespace bft::consensus {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  InstanceTest()
      : quorums_(QuorumSystem::classic(4)), inst_(1, &quorums_, metrics_) {}

  ValueHash add(const std::string& value) {
    return inst_.add_value(to_bytes(value));
  }

  QuorumSystem quorums_;
  obs::Counter write_votes_;
  obs::Counter accept_votes_;
  obs::Counter duplicate_votes_;
  InstanceMetrics metrics_{write_votes_, accept_votes_, duplicate_votes_};
  Instance inst_;
};

TEST_F(InstanceTest, ValueStorage) {
  const ValueHash h = add("batch-1");
  EXPECT_TRUE(inst_.has_value(h));
  ASSERT_NE(inst_.value_for(h), nullptr);
  EXPECT_EQ(*inst_.value_for(h), to_bytes("batch-1"));
  EXPECT_FALSE(inst_.has_value(value_hash(to_bytes("other"))));
  EXPECT_EQ(inst_.value_for(value_hash(to_bytes("other"))), nullptr);
}

TEST_F(InstanceTest, ProposeAcceptedOnlyFromLeader) {
  const ValueHash h = add("v");
  EXPECT_FALSE(inst_.on_propose(0, /*from=*/1, /*leader=*/0, h));
  EXPECT_TRUE(inst_.on_propose(0, 0, 0, h));
  EXPECT_EQ(inst_.proposed_hash(0), h);
}

TEST_F(InstanceTest, SecondProposeInSameEpochIgnored) {
  const ValueHash h1 = add("v1");
  const ValueHash h2 = add("v2");
  EXPECT_TRUE(inst_.on_propose(0, 0, 0, h1));
  EXPECT_FALSE(inst_.on_propose(0, 0, 0, h2));
  EXPECT_EQ(inst_.proposed_hash(0), h1);
}

TEST_F(InstanceTest, ProposePerEpochIndependent) {
  const ValueHash h1 = add("v1");
  const ValueHash h2 = add("v2");
  EXPECT_TRUE(inst_.on_propose(0, 0, 0, h1));
  EXPECT_TRUE(inst_.on_propose(1, 1, 1, h2));  // epoch 1, leader 1
  EXPECT_EQ(inst_.proposed_hash(1), h2);
}

TEST_F(InstanceTest, WriteQuorumEdgeTriggered) {
  const ValueHash h = add("v");
  EXPECT_FALSE(inst_.on_write(0, 0, h, {}));
  EXPECT_FALSE(inst_.on_write(0, 1, h, {}));
  EXPECT_TRUE(inst_.on_write(0, 2, h, {}));   // third vote: quorum of 3
  EXPECT_FALSE(inst_.on_write(0, 3, h, {}));  // already reached: no re-trigger
  EXPECT_EQ(inst_.write_quorum_hash(0), h);
}

TEST_F(InstanceTest, DuplicateWritesDoNotCount) {
  const ValueHash h = add("v");
  EXPECT_FALSE(inst_.on_write(0, 0, h, {}));
  EXPECT_FALSE(inst_.on_write(0, 0, h, {}));
  EXPECT_FALSE(inst_.on_write(0, 0, h, {}));
  EXPECT_FALSE(inst_.write_quorum_hash(0).has_value());
  EXPECT_EQ(write_votes_.value(), 1u);
  EXPECT_EQ(duplicate_votes_.value(), 2u);
}

TEST_F(InstanceTest, EquivocatingWriterCountsOnlyFirstVote) {
  const ValueHash h1 = add("v1");
  const ValueHash h2 = add("v2");
  EXPECT_FALSE(inst_.on_write(0, 0, h1, {}));
  EXPECT_FALSE(inst_.on_write(0, 0, h2, {}));  // equivocation ignored
  EXPECT_FALSE(inst_.on_write(0, 1, h2, {}));
  EXPECT_FALSE(inst_.on_write(0, 2, h2, {}));
  // h2 has votes from 1 and 2 only; replica 0 is pinned to h1.
  EXPECT_FALSE(inst_.write_quorum_hash(0).has_value());
  EXPECT_TRUE(inst_.on_write(0, 3, h2, {}));
  EXPECT_EQ(inst_.write_quorum_hash(0), h2);
}

TEST_F(InstanceTest, SplitVotesNeverQuorum) {
  const ValueHash h1 = add("v1");
  const ValueHash h2 = add("v2");
  EXPECT_FALSE(inst_.on_write(0, 0, h1, {}));
  EXPECT_FALSE(inst_.on_write(0, 1, h1, {}));
  EXPECT_FALSE(inst_.on_write(0, 2, h2, {}));
  EXPECT_FALSE(inst_.on_write(0, 3, h2, {}));
  EXPECT_FALSE(inst_.write_quorum_hash(0).has_value());
}

TEST_F(InstanceTest, DecisionLatchesOnAcceptQuorum) {
  const ValueHash h = add("v");
  EXPECT_FALSE(inst_.on_accept(0, 0, h));
  EXPECT_FALSE(inst_.on_accept(0, 1, h));
  EXPECT_FALSE(inst_.decided());
  EXPECT_TRUE(inst_.on_accept(0, 2, h));
  EXPECT_TRUE(inst_.decided());
  EXPECT_EQ(inst_.decided_hash(), h);
  EXPECT_EQ(inst_.decided_epoch(), 0u);
  // Further accepts (even in later epochs) never re-decide.
  EXPECT_FALSE(inst_.on_accept(0, 3, h));
  EXPECT_FALSE(inst_.on_accept(1, 0, h));
}

TEST_F(InstanceTest, WriteCertificateCarriesQuorumVotes) {
  const ValueHash h = add("v");
  inst_.on_write(0, 0, h, to_bytes("sig0"));
  inst_.on_write(0, 1, h, to_bytes("sig1"));
  inst_.on_write(0, 2, h, to_bytes("sig2"));
  const auto cert = inst_.write_certificate(0);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->cid, 1u);
  EXPECT_EQ(cert->epoch, 0u);
  EXPECT_EQ(cert->hash, h);
  ASSERT_EQ(cert->votes.size(), 3u);
  EXPECT_EQ(cert->votes[0].signature, to_bytes("sig0"));
}

TEST_F(InstanceTest, NoCertificateWithoutQuorum) {
  const ValueHash h = add("v");
  inst_.on_write(0, 0, h, {});
  EXPECT_FALSE(inst_.write_certificate(0).has_value());
  EXPECT_FALSE(inst_.write_certificate(7).has_value());
}

TEST_F(InstanceTest, HighestEpochTracksTraffic) {
  EXPECT_EQ(inst_.highest_epoch(), 0u);
  const ValueHash h = add("v");
  inst_.on_write(3, 0, h, {});
  inst_.on_write(1, 1, h, {});
  EXPECT_EQ(inst_.highest_epoch(), 3u);
}

TEST_F(InstanceTest, WeightedQuorumWithWheat) {
  const QuorumSystem wheat = QuorumSystem::wheat(5, 1, {0, 1});
  Instance inst(9, &wheat, metrics_);
  const ValueHash h = inst.add_value(to_bytes("v"));
  // Vmax(2) + Vmax(2) = 4 < 5: no quorum yet.
  EXPECT_FALSE(inst.on_write(0, 0, h, {}));
  EXPECT_FALSE(inst.on_write(0, 1, h, {}));
  // One Vmin replica completes the 3-machine fast quorum.
  EXPECT_TRUE(inst.on_write(0, 2, h, {}));
}

TEST_F(InstanceTest, AttestationDigestBindsAllFields) {
  const ValueHash h = value_hash(to_bytes("v"));
  const auto base = write_attestation_digest(1, 0, h);
  EXPECT_NE(write_attestation_digest(2, 0, h), base);
  EXPECT_NE(write_attestation_digest(1, 1, h), base);
  EXPECT_NE(write_attestation_digest(1, 0, value_hash(to_bytes("w"))), base);
  EXPECT_EQ(write_attestation_digest(1, 0, h), base);
}

}  // namespace
}  // namespace bft::consensus
