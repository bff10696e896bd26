// Full Hyperledger-Fabric transaction lifecycle (Figure 2 of the paper) over
// the BFT ordering service, on the deterministic simulated runtime:
//
//   client -> endorsing peers (simulate + sign)
//          -> frontend -> BFT-SMaRt ordering cluster -> signed blocks
//          -> committing peers (validate endorsements + MVCC, apply writes)
//
// Includes a double-spend attempt that the MVCC validation rejects.
//
//   $ ./build/examples/fabric_asset_transfer
#include <cstdio>

#include "fabric/client.hpp"
#include "ordering/deployment.hpp"
#include "runtime/sim_runtime.hpp"

using namespace bft;
using fabric::TxValidation;

namespace {

constexpr runtime::ProcessId kPeerA = 200;
constexpr runtime::ProcessId kPeerB = 201;

void print_state(const fabric::Peer& peer) {
  auto show = [&](const char* key) {
    const auto v = peer.state().get(key);
    std::printf("    %-12s = %s\n", key,
                v.has_value() ? bft::to_string(*v).c_str() : "(absent)");
  };
  show("acct:alice");
  show("acct:bob");
  show("asset:car-1");
}

}  // namespace

int main() {
  // --- substrate: endorsing/committing peers and the ordering service ---
  fabric::EndorsementPolicy policy({kPeerA, kPeerB}, 2);  // AND(peerA, peerB)
  fabric::Peer peer_a(kPeerA, "channel-0", policy);
  fabric::Peer peer_b(kPeerB, "channel-0", policy);
  for (fabric::Peer* p : {&peer_a, &peer_b}) {
    p->install_chaincode(std::make_shared<fabric::TokenChaincode>());
    p->install_chaincode(std::make_shared<fabric::AssetChaincode>());
  }
  fabric::FabricClient client(300, "channel-0", policy);

  const ordering::ServiceOptions options{.nodes = {0, 1, 2, 3}, .block_size = 2};
  ordering::Service service = ordering::make_service(options);

  runtime::SimCluster cluster(
      sim::make_lan(120, sim::kMillisecond / 10, sim::NetworkConfig{}, 42), 42);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }

  ordering::Frontend frontend(
      service.cluster, ordering::make_frontend_options(service, options),
      [&](const ledger::Block& block) {
        auto va = peer_a.commit_block(block);
        auto vb = peer_b.commit_block(block);
        if (!va.ok() || !vb.ok()) {
          std::fprintf(stderr, "!! commit failed\n");
          return;
        }
        std::printf("  block #%llu committed:",
                    static_cast<unsigned long long>(block.header.number));
        for (TxValidation v : va.value().results) {
          std::printf(" [%s]", fabric::to_string(v));
        }
        std::printf("\n");
      });
  cluster.add_process(100, &frontend);

  auto submit = [&](std::vector<std::string> args) {
    const auto proposal = client.make_proposal(
        args[0] == "create" || args[0] == "transfer-asset" ? "asset" : "token",
        args[0] == "transfer-asset"
            ? std::vector<std::string>{"transfer", args[1], args[2]}
            : args);
    auto envelope = client.collect_and_assemble(proposal, {&peer_a, &peer_b});
    if (!envelope.ok()) {
      std::printf("  endorsement refused: %s\n", envelope.error().c_str());
      return;
    }
    Bytes encoded = envelope.value().encode();
    cluster.schedule_at(cluster.now() + sim::kMillisecond,
                        [&frontend, encoded]() mutable {
                          frontend.submit(std::move(encoded));
                        });
  };

  std::printf("== round 1: open accounts ==\n");
  submit({"open", "alice", "100"});
  submit({"open", "bob", "10"});
  cluster.run_until(cluster.now() + sim::kSecond);
  print_state(peer_a);

  std::printf("== round 2: asset + payment ==\n");
  submit({"create", "car-1", "alice", "a red tesla"});
  submit({"transfer", "alice", "bob", "30"});
  cluster.run_until(cluster.now() + sim::kSecond);
  print_state(peer_a);

  std::printf("== round 3: double-spend attempt ==\n");
  // Both transfers endorsed against the SAME state; ordering serializes
  // them and MVCC invalidates the loser.
  submit({"transfer", "alice", "bob", "60"});
  submit({"transfer", "alice", "bob", "65"});
  cluster.run_until(cluster.now() + sim::kSecond);
  print_state(peer_a);

  const bool ledgers_match =
      peer_a.ledger().tip().header.digest() == peer_b.ledger().tip().header.digest();
  std::printf("---\nledger height %zu | peers agree: %s | chain: %s | "
              "invalid txs recorded: %llu\n",
              peer_a.ledger().height(), ledgers_match ? "yes" : "NO",
              peer_a.ledger().verify().is_ok() ? "OK" : "BROKEN",
              static_cast<unsigned long long>(peer_a.committed_invalid_txs()));
  return ledgers_match && peer_a.ledger().verify().is_ok() ? 0 : 1;
}
