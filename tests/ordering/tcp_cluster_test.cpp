// Multi-process-shaped deployment over real loopback sockets: each ordering
// node and the frontend runs in its own TcpCluster (own event loops + own
// TcpTransport), wired only by the shared topology. Covers the shared
// runtime_matrix scenario, a node kill mid-stream and a restart with
// reconnection. Labeled `net` in ctest.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <thread>

#include "runtime/tcp_runtime.hpp"
#include "tests/ordering/runtime_matrix.hpp"

namespace bft::ordering {
namespace {

using runtime::ProcessId;
using runtime::TcpCluster;
using runtime::TcpClusterOptions;
using runtime::Topology;
using testing::check_matrix_store;
using testing::kMatrixBlocks;
using testing::kMatrixEnvelopes;
using testing::matrix_envelope;
using testing::matrix_options;

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TcpClusterOptions fast_cluster_options() {
  TcpClusterOptions options;
  options.transport.reconnect_backoff_min = runtime::msec(10);
  options.transport.reconnect_backoff_max = runtime::msec(200);
  return options;
}

/// Five distinct listen addresses: nodes 0..3 plus frontend 100.
Topology loopback_topology() {
  std::string text;
  for (ProcessId node = 0; node < 4; ++node) {
    text += "node " + std::to_string(node) + " 127.0.0.1:" +
            std::to_string(free_port()) + "\n";
  }
  text += "frontend 100 127.0.0.1:" + std::to_string(free_port()) + "\n";
  return Topology::parse(text);
}

/// One ordering node hosted in its own TcpCluster — the in-test stand-in for
/// one OS process of the examples/ deployment.
struct NodeHost {
  NodeHost(const ServiceOptions& options, const Topology& topo, ProcessId id)
      : single(make_node(options, id)),
        cluster(std::make_unique<TcpCluster>(topo, std::vector<ProcessId>{id},
                                             fast_cluster_options())) {
    cluster->add_process(id, single.node.replica.get());
    cluster->start();
  }

  SingleNode single;
  std::unique_ptr<TcpCluster> cluster;
};

struct FrontendHost {
  FrontendHost(const ServiceOptions& options, const Topology& topo)
      : config(smr::ClusterConfig::classic(options.nodes)),
        store(options.channel),
        frontend(config, make_frontend_options(options),
                 [this](const ledger::Block& block) {
                   ASSERT_TRUE(store.append(block).is_ok());
                   blocks.fetch_add(1);
                 }),
        cluster(topo, {100}, fast_cluster_options()) {
    cluster.add_process(100, &frontend);
    cluster.start();
  }

  void submit(int first, int count) {
    cluster.post(100, [this, first, count] {
      for (int i = first; i < first + count; ++i) {
        frontend.submit(matrix_envelope(i));
      }
    });
  }

  bool wait_for_blocks(std::size_t n, int timeout_ms = 20000) {
    for (int waited = 0; waited < timeout_ms && blocks.load() < n; waited += 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return blocks.load() >= n;
  }

  smr::ClusterConfig config;
  ledger::BlockStore store;
  std::atomic<std::size_t> blocks{0};
  Frontend frontend;
  TcpCluster cluster;
};

TEST(TcpClusterTest, TcpRuntimePassesSharedScenario) {
  const ServiceOptions options = matrix_options();
  const Topology topo = loopback_topology();
  std::vector<std::unique_ptr<NodeHost>> nodes;
  for (ProcessId id = 0; id < 4; ++id) {
    nodes.push_back(std::make_unique<NodeHost>(options, topo, id));
  }
  FrontendHost fe(options, topo);
  fe.submit(0, kMatrixEnvelopes);
  ASSERT_TRUE(fe.wait_for_blocks(kMatrixBlocks));
  fe.cluster.stop();
  for (auto& node : nodes) node->cluster->stop();
  // Every accepted block required 2f+1 byte-identical copies pushed over
  // independent sockets; the shared scenario check is runtime-agnostic.
  check_matrix_store(fe.store);
}

TEST(TcpClusterTest, SurvivesNodeKillAndRestart) {
  const ServiceOptions options = matrix_options();
  const Topology topo = loopback_topology();
  std::vector<std::unique_ptr<NodeHost>> nodes;
  for (ProcessId id = 0; id < 4; ++id) {
    nodes.push_back(std::make_unique<NodeHost>(options, topo, id));
  }
  FrontendHost fe(options, topo);
  fe.submit(0, kMatrixEnvelopes);
  ASSERT_TRUE(fe.wait_for_blocks(kMatrixBlocks));

  // Kill node 3 (non-leader): 3 = 2f+1 nodes remain, service must continue.
  nodes[3].reset();
  fe.submit(kMatrixEnvelopes, kMatrixEnvelopes);
  ASSERT_TRUE(fe.wait_for_blocks(2 * kMatrixBlocks));

  // Cold restart on the same port: peers' writers redial and traffic flows
  // again; the service keeps delivering throughout.
  nodes[3] = std::make_unique<NodeHost>(options, topo, 3);
  fe.submit(2 * kMatrixEnvelopes, kMatrixEnvelopes);
  ASSERT_TRUE(fe.wait_for_blocks(3 * kMatrixBlocks));

  // 2f+1 nodes deliver without node 3, so the blocks above can all land
  // before a peer's backoff timer redials it: wait for the redial itself.
  const auto reconnects = [&] {
    std::uint64_t total = fe.cluster.transport().reconnects();
    for (const auto& node : nodes) total += node->cluster->transport().reconnects();
    return total;
  };
  for (int waited = 0; waited < 20000 && reconnects() == 0; waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(reconnects(), 1u);

  fe.cluster.stop();
  for (auto& node : nodes) {
    if (node) node->cluster->stop();
  }
  EXPECT_EQ(fe.store.height(), 3 * kMatrixBlocks);
  EXPECT_TRUE(fe.store.verify().is_ok());
}

}  // namespace
}  // namespace bft::ordering
