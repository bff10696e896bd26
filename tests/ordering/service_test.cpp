// End-to-end ordering-service tests: envelopes in, signed hash-chained
// blocks out, on both the simulated and the real runtime.
#include <gtest/gtest.h>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/real_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "smr/wire.hpp"

namespace bft::ordering {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct SimService {
  explicit SimService(ServiceOptions options, std::size_t n_frontends = 1,
                      std::uint64_t seed = 7,
                      std::optional<FrontendOptions> frontend_options = {})
      : service(make_service(options)),
        cluster(sim::make_lan(
                    static_cast<std::uint32_t>(options.nodes.size()) + 100 +
                        static_cast<std::uint32_t>(n_frontends),
                    kMillisecond / 10, sim::NetworkConfig{}, seed),
                seed) {
    for (std::size_t i = 0; i < service.nodes.size(); ++i) {
      cluster.add_process(service.cluster.members()[i],
                          service.nodes[i].replica.get(), sim::CpuConfig{});
    }
    FrontendOptions fo = frontend_options.has_value()
                             ? *frontend_options
                             : make_frontend_options(service, options);
    for (std::size_t f = 0; f < n_frontends; ++f) {
      ledgers.push_back(std::make_unique<ledger::BlockStore>(options.channel));
      ledger::BlockStore* store = ledgers.back().get();
      frontends.push_back(std::make_unique<Frontend>(
          service.cluster, fo, [store](const ledger::Block& block) {
            ASSERT_TRUE(store->append(block).is_ok());
          }));
      cluster.add_process(100 + static_cast<runtime::ProcessId>(f),
                          frontends.back().get());
    }
  }

  void submit_at(sim::SimTime at, std::size_t frontend, Bytes envelope) {
    Frontend* fe = frontends.at(frontend).get();
    cluster.schedule_at(at, [fe, envelope = std::move(envelope)]() mutable {
      fe->submit(std::move(envelope));
    });
  }

  Service service;
  runtime::SimCluster cluster;
  std::vector<std::unique_ptr<Frontend>> frontends;
  std::vector<std::unique_ptr<ledger::BlockStore>> ledgers;
};

ServiceOptions basic_options(std::uint32_t n, std::size_t block_size) {
  ServiceOptions o;
  for (std::uint32_t i = 0; i < n; ++i) o.nodes.push_back(i);
  o.block_size = block_size;
  o.replica_params.forward_timeout = runtime::msec(300);
  o.replica_params.stop_timeout = runtime::msec(500);
  return o;
}

Bytes envelope(int i, std::size_t size = 16) {
  Bytes e = to_bytes("envelope-" + std::to_string(i) + ":");
  e.resize(std::max(e.size(), size), 0x5a);
  return e;
}

TEST(OrderingServiceTest, BlocksDeliveredAndChained) {
  SimService s(basic_options(4, 10), 2);
  for (int i = 0; i < 35; ++i) {
    s.submit_at(kMillisecond + i * kMillisecond, 0, envelope(i));
  }
  s.cluster.run_until(3 * kSecond);

  // 35 envelopes at block size 10 -> 3 full blocks; 5 remain pending.
  for (auto& ledger : s.ledgers) {
    EXPECT_EQ(ledger->height(), 3u);
    EXPECT_TRUE(ledger->verify().is_ok());
  }
  EXPECT_EQ(s.frontends[0]->delivered_envelopes(), 30u);
  EXPECT_EQ(s.service.nodes[0].app->envelopes_ordered(), 35u);
  EXPECT_EQ(s.service.nodes[0].app->pending_in("channel-0"), 5u);
  // Both frontends saw identical chains.
  EXPECT_EQ(s.ledgers[0]->tip().header.digest(),
            s.ledgers[1]->tip().header.digest());
}

TEST(OrderingServiceTest, EnvelopePayloadsPreservedInOrder) {
  SimService s(basic_options(4, 5), 1);
  for (int i = 0; i < 5; ++i) {
    s.submit_at(kMillisecond * (i + 1), 0, envelope(i));
  }
  s.cluster.run_until(2 * kSecond);
  ASSERT_EQ(s.ledgers[0]->height(), 1u);
  const auto& envelopes = s.ledgers[0]->at(1).envelopes;
  ASSERT_EQ(envelopes.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(envelopes[static_cast<std::size_t>(i)], envelope(i));
  }
}

TEST(OrderingServiceTest, LatencyTrackingRecordsOwnEnvelopes) {
  SimService s(basic_options(4, 10), 2);
  for (int i = 0; i < 10; ++i) s.submit_at(kMillisecond, 0, envelope(i));
  s.cluster.run_until(2 * kSecond);
  EXPECT_EQ(s.frontends[0]->latencies().count(), 10u);
  EXPECT_EQ(s.frontends[1]->latencies().count(), 0u);  // not its envelopes
  EXPECT_GT(s.frontends[0]->latencies().median(), 0.0);
  EXPECT_LT(s.frontends[0]->latencies().max(), 1000.0);
}

TEST(OrderingServiceTest, NodeCrashToleratedByQuorumCollection) {
  SimService s(basic_options(4, 10), 1);
  // Crash a non-leader node: frontends still gather 2f+1 = 3 matching blocks.
  s.cluster.schedule_at(kMillisecond / 2,
                        [&s] { s.cluster.crash(3); });
  for (int i = 0; i < 20; ++i) s.submit_at(kMillisecond + i * kMillisecond, 0, envelope(i));
  s.cluster.run_until(3 * kSecond);
  EXPECT_EQ(s.ledgers[0]->height(), 2u);
  EXPECT_TRUE(s.ledgers[0]->verify().is_ok());
}

TEST(OrderingServiceTest, LeaderCrashRecoveredByRegencyChange) {
  SimService s(basic_options(4, 10), 1);
  s.cluster.schedule_at(kMillisecond / 2, [&s] { s.cluster.crash(0); });
  for (int i = 0; i < 10; ++i) {
    s.submit_at(kSecond + i * kMillisecond, 0, envelope(i));
  }
  s.cluster.run_until(15 * kSecond);
  EXPECT_EQ(s.ledgers[0]->height(), 1u);
  EXPECT_TRUE(s.ledgers[0]->verify().is_ok());
}

// A frontend whose registration reaches the nodes only after blocks #1-#2
// were cut and pushed (to nobody) still gets them: each node re-sends its
// recent-block window to a receiver on its first registration.
TEST(OrderingServiceTest, LateRegisteredReceiverGetsEarlierBlocks) {
  SimService s(basic_options(4, 10), 1);
  s.cluster.set_filter([](runtime::ProcessId, runtime::ProcessId,
                          ByteView payload) {
    return smr::peek_kind(payload) == smr::MsgKind::register_receiver
               ? sim::LinkVerdict{sim::LinkFaultKind::delay, runtime::msec(500)}
               : sim::LinkVerdict{};
  });
  for (int i = 0; i < 20; ++i) {
    s.submit_at(kMillisecond + i * kMillisecond, 0, envelope(i));
  }
  s.cluster.run_until(400 * kMillisecond);
  EXPECT_EQ(s.service.nodes[0].app->blocks_created(), 2u);
  EXPECT_EQ(s.ledgers[0]->height(), 0u);  // registration still in flight
  s.cluster.run_until(2 * kSecond);
  EXPECT_EQ(s.ledgers[0]->height(), 2u);
  EXPECT_TRUE(s.ledgers[0]->verify().is_ok());
  // Re-sent copies of a block count once: no envelope is delivered twice.
  EXPECT_EQ(s.frontends[0]->delivered_envelopes(), 20u);
}

TEST(OrderingServiceTest, SignatureVerifyingFrontendNeedsOnlyFPlus1) {
  ServiceOptions options = basic_options(4, 10);
  Service probe = make_service(options);  // to borrow a verifier
  FrontendOptions fo;
  fo.verify_signatures = true;
  fo.verifier = probe.nodes.front().signer;
  SimService s(options, 1, 7, fo);
  // Only f+1 = 2 nodes reachable by the frontend: drop pushes from nodes 2,3.
  s.cluster.set_filter([](runtime::ProcessId from, runtime::ProcessId to,
                          ByteView) {
    if ((from == 2 || from == 3) && to >= 100) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  for (int i = 0; i < 10; ++i) s.submit_at(kMillisecond, 0, envelope(i));
  s.cluster.run_until(3 * kSecond);
  EXPECT_EQ(s.ledgers[0]->height(), 1u);
}

TEST(OrderingServiceTest, NonVerifyingFrontendNeeds2FPlus1) {
  SimService s(basic_options(4, 10), 1);
  // Only 2 nodes reach the frontend: 2 < 2f+1 = 3, nothing may deliver.
  s.cluster.set_filter([](runtime::ProcessId from, runtime::ProcessId to,
                          ByteView) {
    if ((from == 2 || from == 3) && to >= 100) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  for (int i = 0; i < 10; ++i) s.submit_at(kMillisecond, 0, envelope(i));
  s.cluster.run_until(3 * kSecond);
  EXPECT_EQ(s.ledgers[0]->height(), 0u);
}

TEST(OrderingServiceTest, WheatClusterDeliversWithWeightedQuorum) {
  ServiceOptions options = basic_options(5, 10);
  options.nodes = {0, 1, 2, 3, 4};
  options.vmax_nodes = {0, 1};
  options.replica_params.tentative_execution = true;
  SimService s(options, 2);
  for (int i = 0; i < 30; ++i) {
    s.submit_at(kMillisecond + i * kMillisecond, i % 2, envelope(i));
  }
  s.cluster.run_until(3 * kSecond);
  for (auto& ledger : s.ledgers) {
    EXPECT_EQ(ledger->height(), 3u);
    EXPECT_TRUE(ledger->verify().is_ok());
  }
}

TEST(OrderingServiceTest, StubAndEcdsaSignersProduceIdenticalChains) {
  auto run = [](bool stub) {
    ServiceOptions options = basic_options(4, 10);
    options.stub_signatures = stub;
    SimService s(options, 1);
    for (int i = 0; i < 20; ++i) s.submit_at(kMillisecond + i * kMillisecond, 0, envelope(i));
    s.cluster.run_until(3 * kSecond);
    return s.ledgers[0]->tip().header.digest();
  };
  // Signature backend must not influence block content (only who signs).
  EXPECT_EQ(run(false), run(true));
}

TEST(OrderingServiceTest, TenNodeClusterWithManyReceivers) {
  SimService s(basic_options(10, 10), 8);
  for (int i = 0; i < 20; ++i) s.submit_at(kMillisecond + i * kMillisecond, 0, envelope(i));
  s.cluster.run_until(3 * kSecond);
  for (auto& ledger : s.ledgers) {
    EXPECT_EQ(ledger->height(), 2u);
    EXPECT_TRUE(ledger->verify().is_ok());
  }
}

TEST(OrderingServiceTest, DoubleSignModeStillDelivers) {
  ServiceOptions options = basic_options(4, 10);
  options.double_sign = true;
  SimService s(options, 1);
  for (int i = 0; i < 10; ++i) s.submit_at(kMillisecond, 0, envelope(i));
  s.cluster.run_until(3 * kSecond);
  EXPECT_EQ(s.ledgers[0]->height(), 1u);
}

// Proposal pacing: while blocks are cut by size, the leader holds a short
// proposal until its requests complete the next block, for at most half the
// request timeout (150 ms here). Node 0 leads regency 0 and carries the
// metrics; a filter counts the FORWARD and STOP messages between nodes, the
// signs of a follower suspecting the leader.
struct PacedService {
  explicit PacedService(runtime::Duration batch_timeout = 0)
      : s(options(batch_timeout, &metrics)) {
    s.cluster.set_filter(
        [this](runtime::ProcessId from, runtime::ProcessId to, ByteView msg) {
          if (from < 4 && to < 4 && !msg.empty()) {
            const smr::MsgKind kind = smr::peek_kind(msg);
            if (kind == smr::MsgKind::forward || kind == smr::MsgKind::stop) {
              ++suspicions;
            }
          }
          return sim::LinkVerdict{};
        });
  }

  static ServiceOptions options(runtime::Duration batch_timeout,
                                obs::MetricsRegistry* metrics) {
    ServiceOptions o = basic_options(4, 10);
    o.batch_timeout = batch_timeout;
    o.metrics = metrics;
    return o;
  }
  /// Envelopes [first, first + count) at `at`, `spacing` apart.
  void submit(int first, int count, sim::SimTime at,
              sim::SimTime spacing = 0) {
    for (int i = 0; i < count; ++i) {
      s.submit_at(at + i * spacing, 0, envelope(first + i));
    }
  }
  std::uint64_t holds() { return metrics.counter("smr.proposal_holds").value(); }
  obs::LatencyHistogram& hold_ns() {
    return metrics.histogram("smr.proposal_hold_ns", "ns");
  }
  obs::LatencyHistogram& batch_size() {
    return metrics.histogram("smr.batch_size", "requests");
  }
  std::uint64_t height() { return s.ledgers[0]->height(); }
  std::uint64_t ordered(std::size_t node) {
    return s.service.nodes.at(node).app->envelopes_ordered();
  }

  obs::MetricsRegistry metrics;
  SimService s;
  int suspicions = 0;
};

constexpr sim::SimTime kHoldCap = 150 * kMillisecond;

TEST(OrderingServiceTest, BlockArrivingOverSeveralRoundsIsProposedAsOneBatch) {
  PacedService p;
  p.submit(0, 10, kMillisecond);
  p.s.cluster.run_until(100 * kMillisecond);
  ASSERT_EQ(p.height(), 1u);
  EXPECT_EQ(p.holds(), 0u);  // nothing is held before a block is cut by size
  const std::uint64_t batches = p.batch_size().count();
  const std::int64_t batched = p.batch_size().sum();

  // The next block's envelopes arrive 5 ms apart, several rounds each: the
  // leader holds the first until the tenth completes the block.
  p.submit(10, 10, 100 * kMillisecond, 5 * kMillisecond);
  p.s.cluster.run_until(300 * kMillisecond);
  EXPECT_EQ(p.height(), 2u);
  EXPECT_EQ(p.batch_size().count(), batches + 1);
  EXPECT_EQ(p.batch_size().sum() - batched, 10);
  EXPECT_EQ(p.holds(), 1u);
  ASSERT_EQ(p.hold_ns().count(), 1u);
  EXPECT_GE(p.hold_ns().max(), 44 * kMillisecond);
  EXPECT_LT(p.hold_ns().max(), kHoldCap);
  EXPECT_EQ(p.suspicions, 0);
}

TEST(OrderingServiceTest, LoneEnvelopeAtLowLoadIsProposedWithoutHold) {
  PacedService p(50 * kMillisecond);
  // Before any block is cut by size, lone envelopes go out at once and the
  // batch timeout cuts each block.
  p.submit(0, 3, kMillisecond, 200 * kMillisecond);
  p.s.cluster.run_until(600 * kMillisecond);
  EXPECT_EQ(p.height(), 3u);
  EXPECT_EQ(p.holds(), 0u);

  // A burst is cut by size; when the load then drops, the leader holds the
  // next short proposal once, until the cap.
  p.submit(3, 10, 600 * kMillisecond);
  p.submit(13, 3, 700 * kMillisecond);
  p.s.cluster.run_until(1100 * kMillisecond);
  EXPECT_EQ(p.height(), 5u);
  EXPECT_EQ(p.holds(), 1u);

  // The batch timeout cut that block, so lone envelopes go out at once
  // again: each is delivered a batch timeout after it arrives.
  for (int i = 0; i < 3; ++i) {
    const sim::SimTime at = (1100 + i * 200) * kMillisecond;
    p.submit(16 + i, 1, at);
    p.s.cluster.run_until(at + 70 * kMillisecond);
    EXPECT_EQ(p.height(), 6u + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(p.holds(), 1u);
  EXPECT_EQ(p.s.frontends[0]->delivered_envelopes(), 19u);
  EXPECT_EQ(p.suspicions, 0);
}

TEST(OrderingServiceTest, TimeToCutMarkerIsNeverHeld) {
  PacedService p(50 * kMillisecond);
  p.submit(0, 10, kMillisecond);  // the first block, cut by size
  p.submit(10, 3, 100 * kMillisecond);
  // The three are held until the cap (about 250 ms), ordered, and the batch
  // timeout fires 50 ms later. Blocks are still cut by size, yet the
  // leader's own marker is proposed at once: held, it would wait until
  // about 450 ms.
  p.s.cluster.run_until(320 * kMillisecond);
  EXPECT_EQ(p.height(), 2u);
  EXPECT_EQ(p.holds(), 1u);
  EXPECT_GE(p.metrics.counter("ordering.cut_markers").value(), 1u);
  EXPECT_EQ(p.s.frontends[0]->delivered_envelopes(), 13u);
}

TEST(OrderingServiceTest, NoHoldOutlastsHalfTheRequestTimeout) {
  // No batch timeout and one envelope every 40 ms: a block takes 400 ms to
  // fill, so every hold ends at the cap, which stays short of the followers'
  // 300 ms request timeout.
  PacedService p;
  p.submit(0, 10, kMillisecond);
  p.submit(10, 50, 100 * kMillisecond, 40 * kMillisecond);
  p.s.cluster.run_until(3 * kSecond);
  EXPECT_EQ(p.height(), 6u);
  EXPECT_GE(p.holds(), 5u);
  EXPECT_EQ(p.hold_ns().count(), p.holds());
  EXPECT_LE(p.hold_ns().max(), kHoldCap);
  EXPECT_EQ(p.suspicions, 0);
  for (std::size_t node = 0; node < 4; ++node) {
    EXPECT_EQ(p.s.service.nodes[node].replica->regency(), 0u);
  }
}

TEST(OrderingServiceTest, LeaderCrashDuringHoldDeliversEveryEnvelope) {
  PacedService p;
  p.submit(0, 10, kMillisecond);  // the first block, cut by size
  p.submit(10, 1, 100 * kMillisecond);
  // Crash the leader while it holds envelope 10.
  bool crashed_in_hold = false;
  p.s.cluster.schedule_at(120 * kMillisecond, [&p, &crashed_in_hold] {
    crashed_in_hold = p.holds() == 1 && p.hold_ns().count() == 0;
    p.s.cluster.crash(0);
  });
  p.s.cluster.run_until(200 * kMillisecond);
  ASSERT_TRUE(crashed_in_hold);
  EXPECT_EQ(p.ordered(1), 10u);  // envelope 10 was never proposed

  // Followers forward, then elect node 1; the new leader orders envelope 10
  // and the rest of the block.
  p.submit(11, 9, 3 * kSecond, kMillisecond);
  p.s.cluster.run_until(8 * kSecond);
  EXPECT_GE(p.s.service.nodes[1].replica->regency(), 1u);
  ASSERT_EQ(p.height(), 2u);
  EXPECT_TRUE(p.s.ledgers[0]->verify().is_ok());
  EXPECT_EQ(p.s.frontends[0]->delivered_envelopes(), 20u);
  for (std::size_t node = 1; node < 4; ++node) EXPECT_EQ(p.ordered(node), 20u);
}

TEST(OrderingServiceTest, RealRuntimeEndToEnd) {
  ServiceOptions options = basic_options(4, 5);
  Service service = make_service(options);

  runtime::RealCluster cluster;
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), /*workers=*/2);
  }
  ledger::BlockStore store("channel-0");
  std::atomic<int> delivered{0};
  Frontend frontend(service.cluster, make_frontend_options(service, options),
                    [&](const ledger::Block& block) {
                      ASSERT_TRUE(store.append(block).is_ok());
                      delivered.fetch_add(1);
                    });
  cluster.add_process(100, &frontend);
  cluster.start();
  cluster.post(100, [&frontend] {
    for (int i = 0; i < 10; ++i) {
      frontend.submit(to_bytes("real-tx-" + std::to_string(i)));
    }
  });
  for (int spins = 0; spins < 400 && delivered.load() < 2; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  EXPECT_EQ(delivered.load(), 2);
  EXPECT_TRUE(store.verify().is_ok());
  EXPECT_EQ(store.at(1).envelopes.size(), 5u);
}

}  // namespace
}  // namespace bft::ordering
