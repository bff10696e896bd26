// Byzantine actors against the full ordering service, deterministic (no
// randomized chaos): the frontend acceptance rules from §5/footnote 8 under a
// corrupt-signing node, and an equivocating / mute epoch-0 leader.
#include <gtest/gtest.h>

#include <memory>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "ordering/invariants.hpp"
#include "runtime/sim_runtime.hpp"
#include "smr/byzantine.hpp"

namespace bft::ordering {
namespace {

using sim::kMillisecond;
using sim::kSecond;

ServiceOptions byzantine_options() {
  ServiceOptions options;
  options.nodes = {0, 1, 2, 3};
  options.block_size = 4;
  options.stub_signatures = true;
  options.signature_cost = runtime::usec(50);
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  options.replica_params.stall_timeout = runtime::msec(500);
  return options;
}

struct Deployment {
  explicit Deployment(std::uint64_t seed)
      : cluster(sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{},
                              seed),
                seed) {}
  runtime::SimCluster cluster;

  void add_nodes(Service& service, runtime::Actor* replace_node0 = nullptr) {
    for (std::size_t i = 0; i < service.nodes.size(); ++i) {
      runtime::Actor* actor = service.nodes[i].replica.get();
      if (i == 0 && replace_node0 != nullptr) actor = replace_node0;
      cluster.add_process(service.cluster.members()[i], actor,
                          sim::CpuConfig{});
    }
  }

  void submit_envelopes(Frontend& frontend, int count) {
    for (int i = 0; i < count; ++i) {
      cluster.schedule_at((10 + i * 50) * kMillisecond, [&frontend, i] {
        frontend.submit(to_bytes("env-" + std::to_string(i)));
      });
    }
  }
};

// The wrapper runs the inner replica's prologue, so a WRITE reaches the
// Byzantine node's protocol code only with a verified signature.
TEST(ByzantineOrderingTest, ByzantineReplicaPrologueReturnsInnerVerdict) {
  Service service = make_service(byzantine_options());
  smr::ByzantineReplica byzantine(*service.nodes[0].replica,
                                  smr::ByzantineBehavior::equivocate_proposals);
  const consensus::ValueHash hash = consensus::value_hash(to_bytes("batch"));
  const crypto::Hash256 digest = consensus::write_attestation_digest(1, 0, hash);
  const smr::WriteMsg genuine{1, 0, hash, crypto::Authenticator(2).sign(digest)};
  // Node 3 signs a WRITE that claims to come from node 2.
  const smr::WriteMsg forged{1, 0, hash, crypto::Authenticator(3).sign(digest)};

  EXPECT_EQ(byzantine.prologue(2, smr::encode(genuine)).auth,
            runtime::Verified::Auth::accepted);
  EXPECT_EQ(byzantine.prologue(2, smr::encode(forged)).auth,
            runtime::Verified::Auth::rejected);
}

// One node emits invalid signatures over otherwise-correct blocks. A
// frontend verifying per-sender signatures accepts once f+1 verified copies
// match (footnote 8); the faulty node simply never contributes to any tally.
// Real ECDSA end to end: signing, pushing, per-sender verification.
TEST(ByzantineOrderingTest, VerifyingFrontendToleratesCorruptSignerWithEcdsa) {
  ServiceOptions options = byzantine_options();
  options.stub_signatures = false;  // real secp256k1 signatures
  options.corrupt_signers = {1};
  Service service = make_service(options);

  Deployment d(17);
  d.add_nodes(service);

  FrontendOptions fo = make_frontend_options(service, options);
  fo.verify_signatures = true;

  InvariantChecker checker;
  ledger::BlockStore store("channel-0");
  Frontend frontend(service.cluster, fo,
                    [&checker, &store](const ledger::Block& block) {
                      checker.observe(0, block);
                      ASSERT_TRUE(store.append(block).is_ok());
                    });
  d.cluster.add_process(100, &frontend);

  d.submit_envelopes(frontend, 20);
  d.cluster.run_until(15 * kSecond);

  EXPECT_EQ(frontend.delivered_envelopes(), 20u);
  EXPECT_EQ(store.height(), 5u);
  EXPECT_TRUE(store.verify().is_ok());
  EXPECT_TRUE(checker.ok()) << checker.report();
}

// The two acceptance rules diverge once fewer than f+1 nodes sign honestly:
// with three corrupt signers of four, the verifying frontend can never vouch
// a block (1 < f+1 valid copies) while the unverified 2f+1 content-matching
// rule still delivers, since the blocks themselves are correct.
TEST(ByzantineOrderingTest, VerifyingFrontendRefusesUnderVouchedBlocks) {
  ServiceOptions options = byzantine_options();
  options.corrupt_signers = {0, 1, 2};
  Service service = make_service(options);

  Deployment d(23);
  d.add_nodes(service);

  FrontendOptions verified_fo = make_frontend_options(service, options);
  verified_fo.verify_signatures = true;
  verified_fo.track_latency = false;
  FrontendOptions unverified_fo = make_frontend_options(service, options);

  Frontend verified(service.cluster, verified_fo, nullptr);
  ledger::BlockStore store("channel-0");
  Frontend unverified(service.cluster, unverified_fo,
                      [&store](const ledger::Block& block) {
                        ASSERT_TRUE(store.append(block).is_ok());
                      });
  d.cluster.add_process(100, &unverified);
  d.cluster.add_process(101, &verified);

  d.submit_envelopes(unverified, 20);
  d.cluster.run_until(15 * kSecond);

  EXPECT_EQ(unverified.delivered_envelopes(), 20u);
  EXPECT_TRUE(store.verify().is_ok());
  // Only node 3's signatures verify: one valid copy per block < f+1.
  EXPECT_EQ(verified.delivered_envelopes(), 0u);
}

// An epoch-0 leader proposing a different batch to every follower: no write
// quorum forms on any value, the synchronization phase installs an honest
// leader, and the chain stays fork-free end to end.
TEST(ByzantineOrderingTest, EquivocatingLeaderIsDemotedWithoutForking) {
  ServiceOptions options = byzantine_options();
  Service service = make_service(options);
  smr::ByzantineReplica byz(*service.nodes[0].replica,
                            smr::ByzantineBehavior::equivocate_proposals);

  Deployment d(29);
  d.add_nodes(service, &byz);

  FrontendOptions fo = make_frontend_options(service, options);
  InvariantChecker checker;
  ledger::BlockStore store("channel-0");
  Frontend submitter(service.cluster, fo,
                     [&checker, &store](const ledger::Block& block) {
                       checker.observe(0, block);
                       ASSERT_TRUE(store.append(block).is_ok());
                     });
  FrontendOptions observer_fo = fo;
  observer_fo.track_latency = false;
  Frontend observer(service.cluster, observer_fo, checker.observer(1));
  d.cluster.add_process(100, &submitter);
  d.cluster.add_process(101, &observer);

  d.submit_envelopes(submitter, 20);
  d.cluster.run_until(20 * kSecond);

  EXPECT_GT(byz.tampered_sends(), 0u);  // the attack actually ran
  EXPECT_EQ(submitter.delivered_envelopes(), 20u);
  EXPECT_EQ(observer.delivered_envelopes(), 20u);
  EXPECT_TRUE(store.verify().is_ok());
  EXPECT_TRUE(checker.ok()) << checker.report();
  for (std::size_t i = 1; i < service.nodes.size(); ++i) {
    EXPECT_GE(service.nodes[i].replica->regency(), 1u) << "node " << i;
  }
}

// A mute epoch-0 leader looks alive (WRITEs and ACCEPTs flow) but never
// proposes; only the request-timeout path can unmask it.
TEST(ByzantineOrderingTest, MuteLeaderIsReplacedAndServiceDelivers) {
  ServiceOptions options = byzantine_options();
  Service service = make_service(options);
  smr::ByzantineReplica byz(*service.nodes[0].replica,
                            smr::ByzantineBehavior::mute_leader);

  Deployment d(31);
  d.add_nodes(service, &byz);

  FrontendOptions fo = make_frontend_options(service, options);
  InvariantChecker checker;
  Frontend frontend(service.cluster, fo, checker.observer(0));
  d.cluster.add_process(100, &frontend);

  d.submit_envelopes(frontend, 20);
  d.cluster.run_until(20 * kSecond);

  EXPECT_GT(byz.tampered_sends(), 0u);
  EXPECT_EQ(frontend.delivered_envelopes(), 20u);
  EXPECT_TRUE(checker.ok()) << checker.report();
  for (std::size_t i = 1; i < service.nodes.size(); ++i) {
    EXPECT_GE(service.nodes[i].replica->regency(), 1u) << "node " << i;
  }
}

}  // namespace
}  // namespace bft::ordering
