// One ordering node as its own OS process. Loads the shared topology config,
// builds its slice of the service (replica + ordering app + signer) and
// serves it over TCP until SIGTERM/SIGINT.
//
//   bft_node --config cluster4.cfg --id 2 [--block-size 10] [--workers 2]
//            [--metrics]
//
// --workers N sizes the node's staged-pipeline runner: N workers run
// message prologues (decode + signature verification) and block signing in
// parallel, with epilogues applied in submission order on the replica's event
// loop. 0 selects the serial reference path (everything inline, the
// pre-pipeline behaviour). See DESIGN.md §10.
//
// Launch one per `node` line in the config (see scripts/run_local_cluster.sh
// for a complete localhost deployment).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/cli.hpp"
#include "obs/export.hpp"
#include "ordering/deployment.hpp"
#include "runtime/tcp_runtime.hpp"
#include "storage/store.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace bft;

  CliFlags flags(argc, argv);
  const std::string config_path = flags.get("config", "");
  const auto id = static_cast<runtime::ProcessId>(flags.get_int("id", -1));
  ordering::ServiceOptions options;
  options.block_size = static_cast<std::size_t>(flags.get_int("block-size", 10));
  options.batch_timeout = runtime::msec(flags.get_int("batch-timeout-ms", 250));
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  const bool want_metrics = flags.get_bool("metrics", false);
  const auto workers =
      static_cast<std::size_t>(flags.get_int("workers", 2));
  // Durable storage: on by default so a restarted process resumes its chain
  // from disk. `--data-dir none` runs memory-only (the pre-durability mode).
  const std::string data_dir =
      flags.get("data-dir", "data/node-" + std::to_string(id));
  const std::string fsync_name = flags.get("fsync", "group");
  options.replica_params.checkpoint_period =
      static_cast<std::uint64_t>(flags.get_int("checkpoint", 64));
  if (!flags.unused().empty() || config_path.empty()) {
    std::fprintf(stderr,
                 "usage: bft_node --config <topology.cfg> --id <node-id>\n"
                 "               [--block-size N] [--batch-timeout-ms N] "
                 "[--workers N] [--metrics]\n"
                 "               [--data-dir <path>|none] "
                 "[--fsync always|group|off] [--checkpoint N]\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  const runtime::Topology topology = runtime::Topology::load(config_path);
  options.nodes = topology.ids_with_role("node");
  obs::MetricsRegistry metrics;
  options.metrics = want_metrics ? &metrics : nullptr;
  options.metrics_node = id;

  std::unique_ptr<storage::NodeStore> store;
  if (data_dir != "none") {
    const auto fsync = storage::parse_fsync_policy(fsync_name);
    if (!fsync.ok()) {
      std::fprintf(stderr, "bft_node: %s\n", fsync.error().c_str());
      return 2;
    }
    storage::StoreOptions store_options;
    store_options.directory = data_dir;
    store_options.node_id = id;
    store_options.fsync = fsync.value();
    store_options.metrics = want_metrics ? &metrics : nullptr;
    auto opened = storage::NodeStore::open(std::move(store_options));
    if (!opened.ok()) {
      // Most commonly a mismatched node-id stamp: refuse to run rather than
      // replay another node's history.
      std::fprintf(stderr, "bft_node: %s\n", opened.error().c_str());
      return 3;
    }
    store = std::move(opened).take();
    options.replica_params.storage = store.get();
  }

  ordering::SingleNode single = ordering::make_node(options, id);
  runtime::TcpClusterOptions cluster_options;
  cluster_options.metrics = want_metrics ? &metrics : nullptr;
  runtime::TcpCluster cluster(topology, {id}, cluster_options);
  cluster.add_process(id, single.node.replica.get(), workers);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  cluster.start();
  std::printf("bft_node %u listening on %s (cluster of %zu, f=%u)\n", id,
              topology.at(id).address().c_str(), options.nodes.size(),
              single.cluster.quorums().f());
  if (store != nullptr) {
    // Recovery runs inside the replica's on_start, on its own event loop;
    // wait for it so the banner shows final counts (scripts assert on
    // `replayed=`).
    while (!store->recovery_complete() && !g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::printf("bft_node %u storage: dir=%s fsync=%s replayed=%llu "
                "wal_tail=%llu torn_bytes=%llu\n",
                id, store->directory().c_str(), fsync_name.c_str(),
                static_cast<unsigned long long>(store->replayed_records()),
                static_cast<unsigned long long>(store->wal_tail_cid()),
                static_cast<unsigned long long>(store->truncated_tail_bytes()));
  }
  std::fflush(stdout);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  cluster.stop();
  if (want_metrics) {
    std::printf("%s\n", obs::to_json(metrics, nullptr).c_str());
  }
  std::printf("bft_node %u stopped (ordered %llu envelopes)\n", id,
              static_cast<unsigned long long>(single.node.app->envelopes_ordered()));
  return 0;
}
