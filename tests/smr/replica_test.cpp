// End-to-end SMR tests on the simulated runtime: agreement, total order,
// batching, WHEAT tentative execution, checkpoints and duplicate handling.
// Fault-injection scenarios live in replica_fault_test.cpp.
#include <gtest/gtest.h>

#include "tests/smr/test_support.hpp"

namespace bft::smr::testing {
namespace {

using sim::kMillisecond;
using sim::kSecond;

ReplicaParams fast_params() {
  ReplicaParams p;
  p.forward_timeout = runtime::msec(300);
  p.stop_timeout = runtime::msec(500);
  p.sync_deadline = runtime::msec(1500);
  return p;
}

TEST(ReplicaTest, SingleRequestReachesAllReplicas) {
  SimHarness h(4, 1, fast_params());
  bool replied = false;
  h.invoke_at(kMillisecond, 0, delta_payload(5),
              [&](std::uint64_t, Bytes reply) {
                Reader r(reply);
                EXPECT_EQ(r.u64(), 5u);
                replied = true;
              });
  h.cluster.run_until(kSecond);
  EXPECT_TRUE(replied);
  for (const auto& m : h.machines) EXPECT_EQ(m->value(), 5u);
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
}

TEST(ReplicaTest, ManyRequestsTotalOrderAgreement) {
  SimHarness h(4, 3, fast_params());
  int completions = 0;
  for (int i = 0; i < 60; ++i) {
    h.invoke_at(kMillisecond + i * (kMillisecond / 4), i % 3,
                delta_payload(static_cast<std::uint64_t>(i + 1)),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(completions, 60);
  // Sum of 1..60 = 1830.
  for (const auto& m : h.machines) EXPECT_EQ(m->value(), 1830u);
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
  EXPECT_EQ(h.replicas[0]->executed_request_count(), 60u);
}

TEST(ReplicaTest, BatchingPacksConcurrentRequests) {
  SimHarness h(4, 4, fast_params());
  // 200 requests land together: far fewer consensus instances than requests.
  for (int i = 0; i < 200; ++i) {
    h.invoke_at(kMillisecond, i % 4, delta_payload(1));
  }
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(h.machines[1]->value(), 200u);
  EXPECT_LT(h.replicas[1]->decided_batch_count(), 50u);
  EXPECT_GE(h.replicas[1]->decided_batch_count(), 1u);
}

TEST(ReplicaTest, BatchLimitRespected) {
  ReplicaParams p = fast_params();
  p.batch_max = 10;
  SimHarness h(4, 1, p);
  for (int i = 0; i < 35; ++i) h.invoke_at(kMillisecond, 0, delta_payload(1));
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 35u);
  // 35 requests / 10 per batch => at least 4 instances.
  EXPECT_GE(h.replicas[0]->decided_batch_count(), 4u);
}

TEST(ReplicaTest, DefaultOutputHintNeverHoldsAProposal) {
  obs::MetricsRegistry metrics;
  ReplicaParams p = fast_params();
  p.metrics = &metrics;
  SimHarness h(4, 2, p);
  // Lone requests spaced wider than a round: a state machine with the
  // default hint (1) gets each proposed at once.
  for (int i = 0; i < 20; ++i) {
    h.invoke_at(kMillisecond + i * 10 * kMillisecond, i % 2, delta_payload(1));
  }
  h.cluster.run_until(2 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 20u);
  EXPECT_GE(metrics.counter("smr.batches_proposed").value(), 20u);
  EXPECT_EQ(metrics.counter("smr.proposal_holds").value(), 0u);
  EXPECT_EQ(metrics.histogram("smr.proposal_hold_ns", "ns").count(), 0u);
}

TEST(ReplicaTest, SevenAndTenReplicaClusters) {
  for (std::uint32_t n : {7u, 10u}) {
    SimHarness h(n, 2, fast_params());
    for (int i = 0; i < 30; ++i) {
      h.invoke_at(kMillisecond + i * (kMillisecond / 2), i % 2, delta_payload(2));
    }
    h.cluster.run_until(5 * kSecond);
    std::vector<std::size_t> all;
    for (std::size_t i = 0; i < n; ++i) all.push_back(i);
    EXPECT_EQ(h.machines[0]->value(), 60u) << "n=" << n;
    EXPECT_TRUE(h.replicas_agree(all)) << "n=" << n;
  }
}

TEST(ReplicaTest, DuplicateClientRequestExecutedOnce) {
  SimHarness h(4, 1, fast_params());
  h.invoke_at(kMillisecond, 0, delta_payload(10));
  // Replay the exact same (client, seq) to every replica after it executed.
  Request dup;
  dup.client = SimHarness::kClientBase;
  dup.seq = 1;  // same as the first invocation
  dup.payload = delta_payload(10);
  for (std::uint32_t r = 0; r < 4; ++r) {
    h.send_raw_at(500 * kMillisecond, r, encode(dup));
  }
  h.cluster.run_until(2 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 10u);
  EXPECT_EQ(h.replicas[0]->executed_request_count(), 1u);
}

TEST(ReplicaTest, ClientResendDoesNotDoubleExecute) {
  // Drop all REPLY traffic for a second so the client's resend timer fires
  // repeatedly; replicas must dedup the re-sent (client, seq) pairs.
  ReplicaParams p = fast_params();
  Client::Params cp;
  cp.resend_timeout = runtime::msec(100);
  SimHarness h(4, 1, p, SimHarness::make_classic_config(4), 7, cp);
  h.cluster.set_filter([&h](runtime::ProcessId, runtime::ProcessId,
                            ByteView payload) {
    if (h.cluster.now() < kSecond && !payload.empty() &&
        peek_kind(payload) == MsgKind::reply) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(3 * kSecond);
  EXPECT_EQ(completions, 10);
  EXPECT_EQ(h.machines[0]->value(), 10u);
  EXPECT_EQ(h.replicas[0]->executed_request_count(), 10u);
}

TEST(ReplicaTest, WheatTentativeExecutionAgreement) {
  ReplicaParams p = fast_params();
  p.tentative_execution = true;
  auto cfg = ClusterConfig::wheat({0, 1, 2, 3, 4}, {0, 1});
  SimHarness h(5, 2, p, cfg);
  int completions = 0;
  for (int i = 0; i < 40; ++i) {
    h.invoke_at(kMillisecond + i * (kMillisecond / 2), i % 2, delta_payload(3),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(completions, 40);
  EXPECT_EQ(h.machines[0]->value(), 120u);
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3, 4}));
  // Tentative executions must all have been confirmed by the async ACCEPTs.
  for (const auto& r : h.replicas) {
    EXPECT_EQ(r->last_confirmed(), r->last_applied());
  }
}

TEST(ReplicaTest, TentativeRollbackReappliesConfirmedDecisions) {
  // One real replica (process 1) among scripted peers 0, 2 and 3. It
  // executes slots 1 and 2 tentatively, confirms slot 1, and then slot 2 is
  // decided with a different value: the rollback rewinds to the snapshot
  // taken before slot 1 and must re-apply slot 1 before executing the new
  // slot 2.
  ReplicaParams p = fast_params();
  p.tentative_execution = true;
  p.sign_writes = false;
  const auto cfg = ClusterConfig::classic({0, 1, 2, 3});
  runtime::SimCluster cluster(
      sim::make_lan(101, kMillisecond / 10, sim::NetworkConfig{}, 5), 5);
  RawSender peers[4];
  for (runtime::ProcessId id : {0u, 2u, 3u}) cluster.add_process(id, &peers[id]);
  CounterMachine machine;
  Replica replica(1, cfg, p, &machine);
  cluster.add_process(1, &replica, sim::CpuConfig{});

  const auto batch = [](std::uint64_t seq, std::uint64_t delta) {
    Request r;
    r.client = 100;
    r.seq = seq;
    r.payload = delta_payload(delta);
    return Batch{{r}}.encode();
  };
  const Bytes slot1 = batch(1, 1);
  const Bytes slot2_tentative = batch(2, 10);
  const Bytes slot2_decided = batch(3, 100);
  const auto send_at = [&](int ms, runtime::ProcessId from, Bytes msg) {
    cluster.schedule_at(ms * kMillisecond, [&peers, from, msg] {
      peers[from].send_raw(1, msg);
    });
  };
  const auto write_quorum = [&](int ms, ConsensusId cid, const Bytes& value) {
    send_at(ms, 0, encode(Propose{cid, 0, value}));
    for (runtime::ProcessId from : {0u, 2u}) {
      send_at(ms + 1, from,
              encode(WriteMsg{cid, 0, consensus::value_hash(value), {}}));
    }
  };
  write_quorum(1, 1, slot1);
  write_quorum(3, 2, slot2_tentative);
  for (runtime::ProcessId from : {0u, 2u}) {
    send_at(5, from, encode(AcceptMsg{1, 0, consensus::value_hash(slot1)}));
  }
  for (runtime::ProcessId from : {0u, 2u, 3u}) {
    send_at(6, from,
            encode(AcceptMsg{2, 0, consensus::value_hash(slot2_decided)}));
  }
  send_at(7, 2, encode(ValueReply{2, slot2_decided}));
  cluster.run_until(100 * kMillisecond);

  EXPECT_EQ(replica.last_confirmed(), 2u);
  EXPECT_EQ(replica.last_applied(), 2u);
  EXPECT_EQ(machine.value(), 101u);  // slot 1 (+1) then decided slot 2 (+100)
  EXPECT_EQ(replica.last_executed_seq(100), 1u);
}

TEST(ReplicaTest, CheckpointsTruncateAndKeepWorking) {
  ReplicaParams p = fast_params();
  p.checkpoint_period = 4;
  SimHarness h(4, 1, p);
  for (int i = 0; i < 40; ++i) {
    h.invoke_at(kMillisecond + i * 10 * kMillisecond, 0, delta_payload(1));
  }
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 40u);
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
}

TEST(ReplicaTest, RepliesCarryConsensusIds) {
  SimHarness h(4, 1, fast_params());
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 3; ++i) {
    h.invoke_at(kMillisecond * (i + 1) * 100, 0, delta_payload(1),
                [&](std::uint64_t seq, Bytes) { seqs.push_back(seq); });
  }
  h.cluster.run_until(2 * kSecond);
  ASSERT_EQ(seqs.size(), 3u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ReplicaTest, NonLeaderReplicasStayInSync) {
  SimHarness h(4, 1, fast_params());
  for (int i = 0; i < 20; ++i) {
    h.invoke_at(kMillisecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  h.cluster.run_until(3 * kSecond);
  for (const auto& r : h.replicas) {
    EXPECT_EQ(r->last_confirmed(), h.replicas[0]->last_confirmed());
    EXPECT_EQ(r->regency(), 0u) << "no leader change expected in healthy run";
  }
}

TEST(ReplicaTest, DeterministicSimulation) {
  auto run = [] {
    SimHarness h(4, 2, fast_params(), 123);
    for (int i = 0; i < 25; ++i) {
      h.invoke_at(kMillisecond + i * 3 * kMillisecond, i % 2, delta_payload(1));
    }
    h.cluster.run_until(3 * kSecond);
    return std::make_pair(h.cluster.executed_events(),
                          h.machines[0]->history());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace bft::smr::testing
