// Multi-channel ordering (§3 footnote 6): one BFT ordering service carrying
// two independent channels ("trades" and "audit"), each with its own hash
// chain and its own frontends, plus a batch timeout that flushes partial
// blocks on the quiet channel.
//
//   $ ./build/examples/multichannel
#include <cstdio>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/sim_runtime.hpp"

using namespace bft;

int main() {
  const ordering::ServiceOptions options{
      .nodes = {0, 1, 2, 3},
      .block_size = 5,
      .batch_timeout = runtime::msec(250),  // flush stragglers via TTC
  };

  ordering::Service service = ordering::make_service(options);
  runtime::SimCluster cluster(
      sim::make_lan(120, sim::kMillisecond / 10, sim::NetworkConfig{}, 77), 77);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }

  struct Channel {
    std::string name;
    ledger::BlockStore store;
    std::unique_ptr<ordering::Frontend> frontend;
  };
  std::vector<Channel> channels;
  channels.push_back({"trades", ledger::BlockStore("trades"), nullptr});
  channels.push_back({"audit", ledger::BlockStore("audit"), nullptr});
  for (std::size_t c = 0; c < channels.size(); ++c) {
    Channel& ch = channels[c];
    ordering::FrontendOptions fo =
        ordering::make_frontend_options(service, options);
    fo.channel = ch.name;
    ch.frontend = std::make_unique<ordering::Frontend>(
        service.cluster, fo, [&ch, &cluster](const ledger::Block& block) {
          if (!ch.store.append(block).is_ok()) return;
          std::printf("  [%5.0f ms] %-6s block #%llu (%zu envelopes)\n",
                      static_cast<double>(cluster.now()) / sim::kMillisecond,
                      ch.name.c_str(),
                      static_cast<unsigned long long>(block.header.number),
                      block.envelopes.size());
        });
    cluster.add_process(100 + static_cast<runtime::ProcessId>(c),
                        ch.frontend.get());
  }

  // A busy trading channel and a trickling audit channel.
  for (int i = 0; i < 23; ++i) {
    cluster.schedule_at((10 + i * 15) * sim::kMillisecond, [&channels, i] {
      channels[0].frontend->submit(to_bytes("trade-" + std::to_string(i)));
    });
  }
  for (int i = 0; i < 3; ++i) {
    cluster.schedule_at((50 + i * 200) * sim::kMillisecond, [&channels, i] {
      channels[1].frontend->submit(to_bytes("audit-" + std::to_string(i)));
    });
  }
  std::printf("two channels, one ordering service (batch timeout 250 ms):\n");
  cluster.run_until(3 * sim::kSecond);

  std::printf("---\n");
  bool ok = true;
  for (Channel& ch : channels) {
    const bool verified = ch.store.verify().is_ok();
    ok = ok && verified;
    std::printf("%-6s : height %zu, %llu envelopes delivered, chain %s\n",
                ch.name.c_str(), ch.store.height(),
                static_cast<unsigned long long>(ch.frontend->delivered_envelopes()),
                verified ? "OK" : "BROKEN");
  }
  // The trading channel fills 4 blocks of 5 and flushes 3 stragglers on
  // timeout; the audit channel never fills a block and relies on timeouts.
  ok = ok && channels[0].frontend->delivered_envelopes() == 23 &&
       channels[1].frontend->delivered_envelopes() == 3;
  return ok ? 0 : 1;
}
