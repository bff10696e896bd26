// Fault injection demo: the ordering service keeps producing blocks while
// the BFT-SMaRt leader crashes mid-stream — the synchronization phase elects
// a new leader and re-proposes whatever was in flight.
//
//   $ ./build/examples/fault_injection
#include <cstdio>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/sim_runtime.hpp"

using namespace bft;

int main() {
  smr::ReplicaParams params;
  params.forward_timeout = runtime::msec(300);
  params.stop_timeout = runtime::msec(500);
  const ordering::ServiceOptions options{
      .nodes = {0, 1, 2, 3}, .block_size = 5, .replica_params = params};

  ordering::Service service = ordering::make_service(options);
  runtime::SimCluster cluster(
      sim::make_lan(110, sim::kMillisecond / 10, sim::NetworkConfig{}, 9), 9);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }

  ledger::BlockStore store("channel-0");
  ordering::Frontend frontend(
      service.cluster, ordering::make_frontend_options(service, options),
      [&](const ledger::Block& block) {
        if (store.append(block).is_ok()) {
          std::printf("  [%6.0f ms] block #%llu delivered (%zu envelopes)\n",
                      static_cast<double>(cluster.now()) / sim::kMillisecond,
                      static_cast<unsigned long long>(block.header.number),
                      block.envelopes.size());
        }
      });
  cluster.add_process(100, &frontend);

  // Steady stream of envelopes, one every 20 ms.
  for (int i = 0; i < 150; ++i) {
    cluster.schedule_at((10 + i * 20) * sim::kMillisecond, [&frontend, i] {
      frontend.submit(to_bytes("tx-" + std::to_string(i)));
    });
  }

  std::printf("phase 1: healthy cluster, leader is node 0\n");
  cluster.run_until(sim::kSecond);

  std::printf("phase 2: crashing the leader (node 0)...\n");
  cluster.crash(0);
  cluster.run_until(12 * sim::kSecond);

  const auto& survivor = *service.nodes[1].replica;
  std::printf("---\nregency after recovery: %u (leader is now node %u)\n",
              survivor.regency(),
              survivor.config().leader(survivor.regency()));
  std::printf("ledger height %zu, chain verification: %s\n", store.height(),
              store.verify().is_ok() ? "OK" : "BROKEN");
  std::printf("delivered %llu of 150 envelopes (the rest sit in the "
              "blockcutter waiting for a full block)\n",
              static_cast<unsigned long long>(frontend.delivered_envelopes()));
  const bool ok = store.verify().is_ok() && survivor.regency() >= 1 &&
                  frontend.delivered_envelopes() >= 145;
  return ok ? 0 : 1;
}
