// Ordering-service recovery scenarios: node state (block sequence, previous
// header hash, pending blockcutter contents) surviving state transfer and
// rollback, and a WHEAT cluster staying chain-consistent through a leader
// crash mid-stream.
#include <gtest/gtest.h>

#include "ledger/chain.hpp"
#include "obs/metrics.hpp"
#include "ordering/deployment.hpp"
#include "runtime/sim_runtime.hpp"

namespace bft::ordering {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(OrderingRecoveryTest, IsolatedNodeRebuildsOrderingStateViaTransfer) {
  ServiceOptions options;
  options.nodes = {0, 1, 2, 3};
  options.block_size = 4;
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  options.replica_params.checkpoint_period = 4;
  options.replica_params.state_transfer_gap = 4;
  options.replica_params.stall_timeout = runtime::msec(500);
  Service service = make_service(options);

  runtime::SimCluster cluster(
      sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 21), 21);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }
  ledger::BlockStore store("channel-0");
  Frontend frontend(service.cluster, make_frontend_options(service, options),
                    [&store](const ledger::Block& block) {
                      ASSERT_TRUE(store.append(block).is_ok());
                    });
  cluster.add_process(100, &frontend);

  // Node 3 is fully isolated while the first 40 envelopes are ordered.
  cluster.set_filter([&cluster](runtime::ProcessId from, runtime::ProcessId to,
                                ByteView) {
    if (cluster.now() < 2 * kSecond && (from == 3 || to == 3)) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  for (int i = 0; i < 40; ++i) {
    cluster.schedule_at((10 + i * 20) * kMillisecond, [&frontend, i] {
      frontend.submit(to_bytes("tx-" + std::to_string(i)));
    });
  }
  // After the heal, more traffic lets node 3 notice its gap and catch up;
  // its ordering state (sequence + previous hash + cutter) comes from the
  // application snapshot embedded in the state transfer.
  for (int i = 40; i < 60; ++i) {
    cluster.schedule_at(3 * kSecond + (i - 40) * 20 * kMillisecond,
                        [&frontend, i] {
                          frontend.submit(to_bytes("tx-" + std::to_string(i)));
                        });
  }
  cluster.run_until(15 * kSecond);

  EXPECT_EQ(store.height(), 15u);  // 60 envelopes / 4 per block
  EXPECT_TRUE(store.verify().is_ok());
  EXPECT_EQ(service.nodes[3].app->envelopes_ordered(),
            service.nodes[0].app->envelopes_ordered());
  EXPECT_EQ(service.nodes[3].app->blocks_created(),
            service.nodes[0].app->blocks_created());
}

TEST(OrderingRecoveryTest, IsolatedNodeCatchesUpViaChunkedTransfer) {
  ServiceOptions options;
  options.nodes = {0, 1, 2, 3};
  options.block_size = 4;
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  options.replica_params.checkpoint_period = 4;
  options.replica_params.state_transfer_gap = 4;
  options.replica_params.stall_timeout = runtime::msec(500);
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  options.metrics_node = 3;  // instrument the laggard
  Service service = make_service(options);

  runtime::SimCluster cluster(
      sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 23), 23);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }
  ledger::BlockStore store("channel-0");
  Frontend frontend(service.cluster, make_frontend_options(service, options),
                    [&store](const ledger::Block& block) {
                      ASSERT_TRUE(store.append(block).is_ok());
                    });
  cluster.add_process(100, &frontend);

  cluster.set_filter([&cluster](runtime::ProcessId from, runtime::ProcessId to,
                                ByteView) {
    if (cluster.now() < 2 * kSecond && (from == 3 || to == 3)) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  // Force streaming: the checkpoint the laggard catches up from carries the
  // push cache's blocks, so 40 envelopes of 2 KiB take the reply past
  // kStateChunkBytes and it must arrive as acked StateChunk fragments.
  const auto envelope = [](int i) {
    std::string text = "tx-" + std::to_string(i);
    text.resize(2048, '.');
    return to_bytes(text);
  };
  for (int i = 0; i < 40; ++i) {
    cluster.schedule_at((10 + i * 20) * kMillisecond, [&frontend, envelope, i] {
      frontend.submit(envelope(i));
    });
  }
  for (int i = 40; i < 60; ++i) {
    cluster.schedule_at(3 * kSecond + (i - 40) * 20 * kMillisecond,
                        [&frontend, envelope, i] {
                          frontend.submit(envelope(i));
                        });
  }
  cluster.run_until(15 * kSecond);

  EXPECT_EQ(store.height(), 15u);
  EXPECT_TRUE(store.verify().is_ok());
  EXPECT_EQ(service.nodes[3].app->envelopes_ordered(),
            service.nodes[0].app->envelopes_ordered());
  EXPECT_EQ(service.nodes[3].app->blocks_created(),
            service.nodes[0].app->blocks_created());
  // The catch-up genuinely streamed: the laggard reassembled several
  // fragments (2+ proves multi-chunk, i.e. the windowed path ran).
  EXPECT_GE(metrics.counter("smr.state_chunks_received").value(), 2u);
}

TEST(OrderingRecoveryTest, WheatLeaderCrashKeepsChainsConsistent) {
  ServiceOptions options;
  options.nodes = {0, 1, 2, 3, 4};
  options.vmax_nodes = {0, 1};
  options.block_size = 5;
  options.replica_params.tentative_execution = true;
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  Service service = make_service(options);

  runtime::SimCluster cluster(
      sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 5), 5);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }
  ledger::BlockStore store("channel-0");
  Frontend frontend(service.cluster, make_frontend_options(service, options),
                    [&store](const ledger::Block& block) {
                      ASSERT_TRUE(store.append(block).is_ok());
                    });
  cluster.add_process(100, &frontend);

  for (int i = 0; i < 50; ++i) {
    cluster.schedule_at((10 + i * 25) * kMillisecond, [&frontend, i] {
      frontend.submit(to_bytes("w-" + std::to_string(i)));
    });
  }
  // Crash the Vmax leader mid-stream: tentative executions at the survivors
  // may roll back, but the delivered chain must stay valid and complete.
  cluster.schedule_at(600 * kMillisecond, [&cluster] { cluster.crash(0); });
  cluster.run_until(20 * kSecond);

  EXPECT_EQ(frontend.delivered_envelopes(), 50u);
  EXPECT_EQ(store.height(), 10u);
  EXPECT_TRUE(store.verify().is_ok());
  // Survivors agree on the ordering state.
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(service.nodes[i].app->blocks_created(),
              service.nodes[1].app->blocks_created());
  }
}

}  // namespace
}  // namespace bft::ordering
