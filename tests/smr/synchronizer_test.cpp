// The STOPDATA-set check shared by the SYNC leader and its followers.
#include "smr/synchronizer.hpp"

#include <gtest/gtest.h>

namespace bft::smr {
namespace {

constexpr Epoch kEpoch = 1;
constexpr ConsensusId kSlot = 7;

const ClusterConfig& config() {
  static const ClusterConfig cfg = ClusterConfig::classic({0, 1, 2, 3});
  return cfg;
}

/// A quorum-backed write certificate for `value` at `epoch`.
WriteCertificate certify(const Bytes& value, Epoch epoch) {
  WriteCertificate cert{kSlot, epoch, consensus::value_hash(value), {}};
  for (ReplicaId i = 0; i < 3; ++i) {
    cert.votes.push_back(
        {i, crypto::Authenticator(config().member_at(i))
                .sign(consensus::write_attestation_digest(kSlot, epoch,
                                                          cert.hash))});
  }
  return cert;
}

StopData stopdata(runtime::ProcessId from,
                  std::optional<WriteCertificate> cert = std::nullopt,
                  Bytes value = {}) {
  StopData sd{kEpoch, from, kSlot - 1, kSlot, std::move(cert),
              std::move(value), {}};
  sd.signature = crypto::Authenticator(from).sign(stopdata_digest(sd));
  return sd;
}

std::optional<SyncChoice> check(const std::vector<StopData>& set) {
  return check_stopdata_set(set, kEpoch, kSlot, config(),
                            crypto::Authenticator(0), true);
}

TEST(StopDataSetTest, QuorumOfValidStopDataAdmitsAnyValue) {
  const auto choice = check({stopdata(0), stopdata(1), stopdata(2)});
  ASSERT_TRUE(choice.has_value());
  EXPECT_FALSE(choice->cert.has_value());
  EXPECT_TRUE(choice->admits(to_bytes("any batch")));
}

TEST(StopDataSetTest, DuplicateSenderIsRejected) {
  EXPECT_FALSE(
      check({stopdata(0), stopdata(1), stopdata(2), stopdata(2)}).has_value());
}

TEST(StopDataSetTest, SubQuorumSetIsRejected) {
  EXPECT_FALSE(check({stopdata(0), stopdata(1)}).has_value());
}

TEST(StopDataSetTest, BadSignatureIsRejected) {
  StopData forged = stopdata(2);
  forged.last_decided += 1;  // no longer what replica 2 signed
  EXPECT_FALSE(check({stopdata(0), stopdata(1), forged}).has_value());
}

TEST(StopDataSetTest, ProposedValueMustMatchTheHighestCertificate) {
  const Bytes older = to_bytes("certified in epoch 0");
  const Bytes newer = to_bytes("certified in epoch 1");
  const auto choice = check({stopdata(0, certify(older, 0), older),
                             stopdata(1, certify(newer, 1), newer),
                             stopdata(2)});
  ASSERT_TRUE(choice.has_value());
  ASSERT_TRUE(choice->cert.has_value());
  EXPECT_EQ(choice->cert->epoch, 1u);
  EXPECT_TRUE(choice->admits(newer));
  EXPECT_FALSE(choice->admits(older));
  EXPECT_FALSE(choice->admits(to_bytes("fresh batch")));
}

}  // namespace
}  // namespace bft::smr
