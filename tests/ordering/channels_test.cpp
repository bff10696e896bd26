// Multi-channel ordering (§3 footnote 6 / step 4) and time-to-cut batch
// timeouts: one ordering service, several independent hash chains.
#include <gtest/gtest.h>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/sim_runtime.hpp"

namespace bft::ordering {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// The bytes of `prefix` followed by i in decimal.
Bytes numbered(std::string prefix, int i) {
  prefix += std::to_string(i);
  return to_bytes(prefix);
}

TEST(OrderedPayloadTest, RoundTripBothKinds) {
  OrderedPayload env;
  env.channel = "ch";
  env.envelope = to_bytes("tx");
  const OrderedPayload env2 = OrderedPayload::decode(env.encode());
  EXPECT_EQ(env2.kind, OrderedPayload::Kind::envelope);
  EXPECT_EQ(env2.envelope, to_bytes("tx"));

  OrderedPayload cut;
  cut.kind = OrderedPayload::Kind::time_to_cut;
  cut.channel = "ch";
  cut.cut_block_number = 7;
  const OrderedPayload cut2 = OrderedPayload::decode(cut.encode());
  EXPECT_EQ(cut2.kind, OrderedPayload::Kind::time_to_cut);
  EXPECT_EQ(cut2.cut_block_number, 7u);

  EXPECT_THROW(OrderedPayload::decode(to_bytes("zz")), DecodeError);
  OrderedPayload empty_channel = env;
  empty_channel.channel.clear();
  EXPECT_THROW(OrderedPayload::decode(empty_channel.encode()), DecodeError);
}

struct MultiChannelHarness {
  MultiChannelHarness(std::size_t block_size, runtime::Duration batch_timeout,
                      std::uint64_t seed = 13)
      : cluster(sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, seed),
                seed) {
    ServiceOptions options;
    options.nodes = {0, 1, 2, 3};
    options.block_size = block_size;
    options.batch_timeout = batch_timeout;
    options.replica_params.forward_timeout = runtime::msec(400);
    options.replica_params.stop_timeout = runtime::msec(800);
    service_holder = std::make_unique<Service>(make_service(options));
    for (std::size_t i = 0; i < service_holder->nodes.size(); ++i) {
      cluster.add_process(service_holder->cluster.members()[i],
                          service_holder->nodes[i].replica.get(),
                          sim::CpuConfig{});
    }
    for (const char* name : {"orders", "payments"}) {
      stores.push_back(std::make_unique<ledger::BlockStore>(name));
      ledger::BlockStore* store = stores.back().get();
      FrontendOptions fo = make_frontend_options(*service_holder, options);
      fo.channel = name;
      frontends.push_back(std::make_unique<Frontend>(
          service_holder->cluster, fo, [store](const ledger::Block& block) {
            ASSERT_TRUE(store->append(block).is_ok());
          }));
      cluster.add_process(
          100 + static_cast<runtime::ProcessId>(frontends.size() - 1),
          frontends.back().get());
    }
  }

  void submit_at(sim::SimTime at, std::size_t channel_idx, Bytes envelope) {
    Frontend* fe = frontends.at(channel_idx).get();
    cluster.schedule_at(at, [fe, envelope = std::move(envelope)]() mutable {
      fe->submit(std::move(envelope));
    });
  }

  runtime::SimCluster cluster;
  std::unique_ptr<Service> service_holder;
  std::vector<std::unique_ptr<Frontend>> frontends;
  std::vector<std::unique_ptr<ledger::BlockStore>> stores;
};

TEST(MultiChannelTest, ChannelsGetIndependentChains) {
  MultiChannelHarness h(3, 0);
  // Interleave submissions to both channels.
  for (int i = 0; i < 9; ++i) {
    h.submit_at((10 + i * 10) * kMillisecond, 0, numbered("o", i));
    h.submit_at((15 + i * 10) * kMillisecond, 1, numbered("p", i));
  }
  h.cluster.run_until(2 * kSecond);

  ASSERT_EQ(h.stores[0]->height(), 3u);
  ASSERT_EQ(h.stores[1]->height(), 3u);
  EXPECT_TRUE(h.stores[0]->verify().is_ok());
  EXPECT_TRUE(h.stores[1]->verify().is_ok());
  // Chains are channel-pure.
  for (const auto& e : h.stores[0]->at(1).envelopes) {
    EXPECT_EQ(e[0], 'o');
  }
  for (const auto& e : h.stores[1]->at(1).envelopes) {
    EXPECT_EQ(e[0], 'p');
  }
  // Both channels live on the same ordering nodes.
  const auto channels = h.service_holder->nodes[0].app->channels();
  EXPECT_EQ(channels.size(), 2u);
}

TEST(MultiChannelTest, FrontendsIgnoreOtherChannelsBlocks) {
  MultiChannelHarness h(2, 0);
  for (int i = 0; i < 4; ++i) {
    h.submit_at((10 + i * 10) * kMillisecond, 0, numbered("o", i));
  }
  h.cluster.run_until(kSecond);
  EXPECT_EQ(h.stores[0]->height(), 2u);
  EXPECT_EQ(h.stores[1]->height(), 0u);  // nothing on "payments"
  EXPECT_EQ(h.frontends[1]->delivered_blocks(), 0u);
}

TEST(MultiChannelTest, BatchTimeoutCutsPartialBlocks) {
  // Block size 100 never fills; the time-to-cut marker flushes stragglers.
  MultiChannelHarness h(100, runtime::msec(200));
  for (int i = 0; i < 7; ++i) {
    h.submit_at((10 + i) * kMillisecond, 0, numbered("o", i));
  }
  h.cluster.run_until(3 * kSecond);
  ASSERT_EQ(h.stores[0]->height(), 1u);
  EXPECT_EQ(h.stores[0]->at(1).envelopes.size(), 7u);
  EXPECT_EQ(h.service_holder->nodes[0].app->pending_in("orders"), 0u);
  // All nodes cut at the same position (same block everywhere).
  EXPECT_EQ(h.service_holder->nodes[0].app->blocks_created(),
            h.service_holder->nodes[3].app->blocks_created());
}

TEST(MultiChannelTest, BatchTimeoutRepeatsForTrickle) {
  MultiChannelHarness h(100, runtime::msec(150));
  // Two bursts far apart: each gets flushed by its own marker.
  for (int i = 0; i < 3; ++i) {
    h.submit_at((10 + i) * kMillisecond, 0, numbered("a", i));
  }
  for (int i = 0; i < 4; ++i) {
    h.submit_at(kSecond + i * kMillisecond, 0, numbered("b", i));
  }
  h.cluster.run_until(4 * kSecond);
  ASSERT_EQ(h.stores[0]->height(), 2u);
  EXPECT_EQ(h.stores[0]->at(1).envelopes.size(), 3u);
  EXPECT_EQ(h.stores[0]->at(2).envelopes.size(), 4u);
  EXPECT_TRUE(h.stores[0]->verify().is_ok());
}

TEST(MultiChannelTest, BatchTimeoutDoesNotFireWithoutPending) {
  MultiChannelHarness h(3, runtime::msec(100));
  for (int i = 0; i < 6; ++i) {
    h.submit_at((10 + i) * kMillisecond, 0, numbered("o", i));
  }
  h.cluster.run_until(2 * kSecond);
  // Exactly two full blocks; no extra partial cuts appeared afterwards.
  EXPECT_EQ(h.stores[0]->height(), 2u);
  EXPECT_EQ(h.stores[0]->at(1).envelopes.size(), 3u);
  EXPECT_EQ(h.stores[0]->at(2).envelopes.size(), 3u);
}

}  // namespace
}  // namespace bft::ordering
