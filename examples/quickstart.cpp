// Quickstart: a 4-node BFT ordering service on real threads.
//
// Builds the cluster, registers a frontend, submits 25 transactions and
// prints every block the frontend assembles from 2f+1 matching node copies.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/real_runtime.hpp"

using namespace bft;

int main() {
  // 1. Describe the service: four ordering nodes (f = 1), ten envelopes per
  //    block, real ECDSA block signatures.
  const ordering::ServiceOptions options{.nodes = {0, 1, 2, 3}, .block_size = 10};

  ordering::Service service = ordering::make_service(options);

  // 2. Register every node's replica with the threaded runtime. Each node
  //    gets a 4-worker staged-pipeline runner (prologue verification + block
  //    signing off the event loop, epilogues in order).
  runtime::RealCluster cluster;
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), /*workers=*/4);
  }

  // 3. A frontend (process 100) that commits delivered blocks to a local
  //    ledger copy and prints them.
  ledger::BlockStore store("channel-0");
  std::atomic<int> delivered{0};
  ordering::Frontend frontend(
      service.cluster, ordering::make_frontend_options(service, options),
      [&](const ledger::Block& block) {
        if (!store.append(block).is_ok()) {
          std::fprintf(stderr, "!! block %llu failed chain verification\n",
                       static_cast<unsigned long long>(block.header.number));
          return;
        }
        std::printf("block #%llu  %zu envelopes  header=%s\n",
                    static_cast<unsigned long long>(block.header.number),
                    block.envelopes.size(),
                    crypto::hash_hex(block.header.digest()).substr(0, 16).c_str());
        delivered.fetch_add(1);
      });
  cluster.add_process(100, &frontend);
  cluster.start();

  // 4. Submit 25 transactions (two full blocks; five stay pending in the
  //    blockcutter until more arrive).
  cluster.post(100, [&frontend] {
    for (int i = 0; i < 25; ++i) {
      frontend.submit(to_bytes("transaction payload #" + std::to_string(i)));
    }
  });

  for (int spins = 0; spins < 600 && delivered.load() < 2; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();

  std::printf("---\nledger height: %zu, chain verification: %s\n",
              store.height(), store.verify().is_ok() ? "OK" : "BROKEN");
  std::printf("frontend delivered %llu envelopes, median latency %.2f ms\n",
              static_cast<unsigned long long>(frontend.delivered_envelopes()),
              frontend.latencies().empty() ? 0.0 : frontend.latencies().median());
  return store.verify().is_ok() && delivered.load() == 2 ? 0 : 1;
}
