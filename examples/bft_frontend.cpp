// The frontend (Fabric-facing receiver/submitter) as its own OS process.
// Connects to the ordering nodes from the shared topology config, submits
// envelopes and prints every accepted block — a block is accepted only after
// 2f+1 byte-identical signed copies arrive (f+1 with --verify).
//
//   bft_frontend --config cluster4.cfg --id 100 --submit 20
//                --expect-blocks 2 [--verify] [--timeout-sec 30]
//
// Exits 0 once --expect-blocks blocks are delivered and chain-verified;
// non-zero on timeout. With --submit 0 it runs as a passive receiver until
// SIGTERM.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/cli.hpp"
#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/tcp_runtime.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace bft;

  CliFlags flags(argc, argv);
  const std::string config_path = flags.get("config", "");
  const auto id = static_cast<runtime::ProcessId>(flags.get_int("id", 100));
  const int submit = static_cast<int>(flags.get_int("submit", 0));
  const auto expect_blocks =
      static_cast<std::size_t>(flags.get_int("expect-blocks", 0));
  const bool verify = flags.get_bool("verify", false);
  const bool no_receive = flags.get_bool("no-receive", false);
  const auto linger =
      std::chrono::milliseconds(flags.get_int("linger-ms", 1000));
  const auto timeout = std::chrono::seconds(flags.get_int("timeout-sec", 30));
  const std::size_t block_size =
      static_cast<std::size_t>(flags.get_int("block-size", 10));
  if (!flags.unused().empty() || config_path.empty()) {
    std::fprintf(stderr,
                 "usage: bft_frontend --config <topology.cfg> [--id N]\n"
                 "                    [--submit N] [--expect-blocks N] "
                 "[--verify]\n"
                 "                    [--no-receive] [--linger-ms N]\n"
                 "                    [--block-size N] [--timeout-sec N]\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  const runtime::Topology topology = runtime::Topology::load(config_path);
  ordering::ServiceOptions options;
  options.nodes = topology.ids_with_role("node");
  options.block_size = block_size;
  ordering::FrontendOptions frontend_options =
      ordering::make_frontend_options(options);
  frontend_options.verify_signatures = verify;
  // Submit-only mode (load generator / script driver): don't register for
  // block pushes; a long-lived receiver frontend confirms delivery instead.
  frontend_options.receive_blocks = !no_receive;
  frontend_options.track_latency = !no_receive;

  const smr::ClusterConfig cluster_config =
      smr::ClusterConfig::classic(options.nodes);
  ledger::BlockStore store(frontend_options.channel);
  std::mutex store_mutex;
  std::atomic<std::size_t> blocks{0};
  ordering::Frontend frontend(
      cluster_config, frontend_options, [&](const ledger::Block& block) {
        std::lock_guard<std::mutex> lock(store_mutex);
        if (!store.append(block).is_ok()) {
          std::fprintf(stderr, "block #%llu broke the hash chain\n",
                       static_cast<unsigned long long>(block.header.number));
          std::exit(1);
        }
        std::printf("block #%llu  envelopes=%zu  copies>=quorum  chain=ok\n",
                    static_cast<unsigned long long>(block.header.number),
                    block.envelopes.size());
        std::fflush(stdout);
        blocks.fetch_add(1);
      });

  runtime::TcpCluster cluster(topology, {id});
  cluster.add_process(id, &frontend);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  cluster.start();
  std::printf("bft_frontend %u up (%zu nodes, verify=%s, quorum=%s)\n", id,
              options.nodes.size(), verify ? "yes" : "no",
              verify ? "f+1" : "2f+1");
  std::fflush(stdout);
  if (submit > 0) {
    cluster.post(id, [&frontend, submit] {
      for (int i = 0; i < submit; ++i) {
        frontend.submit(to_bytes("envelope-" + std::to_string(i)));
      }
    });
  }

  if (no_receive) {
    // Give the transport writers time to drain the submissions, then leave;
    // the receiver process is the one that asserts delivery.
    std::this_thread::sleep_for(linger);
    cluster.stop();
    std::printf("bft_frontend %u submitted %d envelopes (submit-only)\n", id,
                submit);
    return 0;
  }

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!g_stop.load()) {
    if (expect_blocks > 0 && blocks.load() >= expect_blocks) break;
    if (expect_blocks > 0 && std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "timeout: %zu/%zu blocks delivered\n", blocks.load(),
                   expect_blocks);
      cluster.stop();
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  cluster.stop();

  std::lock_guard<std::mutex> lock(store_mutex);
  if (!store.verify().is_ok()) {
    std::fprintf(stderr, "final chain verification failed\n");
    return 1;
  }
  std::printf("bft_frontend %u done: %zu blocks, %llu envelopes, chain ok\n",
              id, store.height(),
              static_cast<unsigned long long>(frontend.delivered_envelopes()));
  return 0;
}
