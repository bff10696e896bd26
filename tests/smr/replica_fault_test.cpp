// Fault-injection scenarios: leader crash (synchronization phase), Byzantine
// leader equivocation, lossy networks, lagging replicas (state transfer) and
// membership changes (reconfiguration).
#include <gtest/gtest.h>

#include "tests/smr/test_support.hpp"

namespace bft::smr::testing {
namespace {

using sim::kMillisecond;
using sim::kSecond;

ReplicaParams fault_params() {
  ReplicaParams p;
  p.forward_timeout = runtime::msec(200);
  p.stop_timeout = runtime::msec(300);
  p.sync_deadline = runtime::msec(1500);
  p.state_transfer_gap = 8;
  p.state_transfer_retry = runtime::msec(300);
  return p;
}

TEST(ReplicaFaultTest, LeaderCrashTriggersRegencyChange) {
  SimHarness h(4, 1, fault_params());
  // Warm up with one request under leader 0.
  h.invoke_at(kMillisecond, 0, delta_payload(1));
  // Crash the initial leader, then submit more work.
  h.cluster.schedule_at(500 * kMillisecond, [&h] { h.cluster.crash(0); });
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(kSecond + i * 10 * kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(15 * kSecond);
  EXPECT_EQ(completions, 10);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(h.machines[i]->value(), 11u) << "replica " << i;
    EXPECT_GE(h.replicas[i]->regency(), 1u) << "replica " << i;
  }
  EXPECT_TRUE(h.replicas_agree({1, 2, 3}));
}

TEST(ReplicaFaultTest, NonLeaderCrashIsTransparent) {
  SimHarness h(4, 1, fault_params());
  h.cluster.schedule_at(kMillisecond, [&h] { h.cluster.crash(2); });
  int completions = 0;
  for (int i = 0; i < 20; ++i) {
    h.invoke_at(10 * kMillisecond + i * 5 * kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(completions, 20);
  EXPECT_EQ(h.machines[0]->value(), 20u);
  EXPECT_EQ(h.replicas[0]->regency(), 0u);  // no leader change needed
  EXPECT_TRUE(h.replicas_agree({0, 1, 3}));
}

TEST(ReplicaFaultTest, TwoCrashesWithTenReplicas) {
  SimHarness h(10, 1, fault_params());
  h.cluster.schedule_at(kMillisecond, [&h] {
    h.cluster.crash(4);
    h.cluster.crash(7);
  });
  int completions = 0;
  for (int i = 0; i < 15; ++i) {
    h.invoke_at(10 * kMillisecond + i * 10 * kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(5 * kSecond);
  EXPECT_EQ(completions, 15);
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3, 5, 6, 8, 9}));
}

// A Byzantine leader that equivocates: different proposals to different
// replicas for the same consensus slot. Safety demands no two correct
// replicas decide different values; liveness demands a regency change
// eventually orders the client's request through an honest leader.
class EquivocatingLeader : public runtime::Actor {
 public:
  explicit EquivocatingLeader(ClusterConfig config) : config_(std::move(config)) {}

  void on_message(runtime::ProcessId, ByteView payload) override {
    try {
      if (peek_kind(payload) != MsgKind::request) return;
      const Request req = decode<Request>(payload);
      if (equivocated_) return;
      equivocated_ = true;
      // Send a different single-request batch to each follower.
      std::uint32_t variant = 0;
      for (runtime::ProcessId member : config_.members()) {
        if (member == env().self()) continue;
        Request forged = req;
        Writer w;
        w.u64(1000 + variant);  // different payload per follower
        forged.payload = std::move(w).take();
        Batch batch;
        batch.requests.push_back(forged);
        env().send(member, encode(Propose{1, 0, batch.encode()}));
        ++variant;
      }
    } catch (const DecodeError&) {
    }
  }
  void on_timer(std::uint64_t) override {}

 private:
  ClusterConfig config_;
  bool equivocated_ = false;
};

TEST(ReplicaFaultTest, ByzantineLeaderEquivocationIsContained) {
  // Processes 0..3; process 0 is the Byzantine initial leader.
  const auto cfg = ClusterConfig::classic({0, 1, 2, 3});
  ReplicaParams p = fault_params();
  runtime::SimCluster cluster(
      sim::make_lan(104, sim::kMillisecond / 10, sim::NetworkConfig{}, 3), 3);

  EquivocatingLeader evil(cfg);
  cluster.add_process(0, &evil);
  std::vector<std::unique_ptr<CounterMachine>> machines;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::uint32_t i = 1; i < 4; ++i) {
    machines.push_back(std::make_unique<CounterMachine>());
    replicas.push_back(std::make_unique<Replica>(i, cfg, p, machines.back().get()));
    cluster.add_process(i, replicas.back().get(), sim::CpuConfig{});
  }
  Client client(cfg);
  cluster.add_process(100, &client);

  int completions = 0;
  cluster.schedule_at(kMillisecond, [&client, &completions] {
    client.invoke(delta_payload(7),
                  [&completions](std::uint64_t, Bytes) { ++completions; });
  });
  cluster.run_until(20 * kSecond);

  // Liveness: the request was eventually ordered under an honest regency.
  EXPECT_EQ(completions, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(machines[i]->value(), 7u) << "replica " << (i + 1);
    EXPECT_GE(replicas[i]->regency(), 1u);
  }
  // Safety: identical histories everywhere.
  EXPECT_EQ(machines[0]->history(), machines[1]->history());
  EXPECT_EQ(machines[1]->history(), machines[2]->history());
}

TEST(ReplicaFaultTest, LossyNetworkStillMakesProgress) {
  SimHarness h(4, 1, fault_params(), SimHarness::make_classic_config(4), 11);
  // Drop 10% of consensus traffic at random (deterministically seeded).
  auto drop_rng = std::make_shared<Rng>(99);
  h.cluster.set_filter([drop_rng](runtime::ProcessId, runtime::ProcessId,
                                  ByteView payload) {
    if (payload.empty()) return sim::LinkVerdict{};
    const auto kind = peek_kind(payload);
    if ((kind == MsgKind::write || kind == MsgKind::accept) &&
        drop_rng->uniform(10) == 0) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  int completions = 0;
  for (int i = 0; i < 30; ++i) {
    h.invoke_at(kMillisecond + i * 20 * kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(30 * kSecond);
  EXPECT_EQ(completions, 30);
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
}

TEST(ReplicaFaultTest, IsolatedReplicaCatchesUpViaStateTransfer) {
  ReplicaParams p = fault_params();
  p.checkpoint_period = 8;
  p.state_transfer_gap = 4;
  SimHarness h(4, 1, p);
  // Isolate replica 3 for the first 3 seconds (drop everything to/from it,
  // except nothing — full isolation).
  h.cluster.set_filter([&h](runtime::ProcessId from, runtime::ProcessId to,
                            ByteView) {
    if (h.cluster.now() < 3 * kSecond && (from == 3 || to == 3)) {
      return sim::LinkVerdict{sim::LinkFaultKind::drop};
    }
    return sim::LinkVerdict{};
  });
  for (int i = 0; i < 40; ++i) {
    h.invoke_at(kMillisecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  // More work after the partition heals, so replica 3 sees fresh traffic and
  // detects its gap.
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(4 * kSecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  h.cluster.run_until(20 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 50u);
  EXPECT_EQ(h.machines[3]->value(), 50u) << "isolated replica failed to catch up";
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
}

TEST(ReplicaFaultTest, CrashedThenRecoveredReplicaCatchesUpViaStateTransfer) {
  ReplicaParams p = fault_params();
  p.checkpoint_period = 8;
  p.state_transfer_gap = 4;
  p.stall_timeout = runtime::msec(400);
  SimHarness h(4, 1, p);
  // Replica 3 crashes at 500ms and comes back warm at 3s, having missed a
  // window of decisions that spans several checkpoints.
  h.cluster.schedule_at(500 * kMillisecond, [&h] { h.cluster.crash(3); });
  h.cluster.schedule_at(3 * kSecond, [&h] { h.cluster.recover(3); });
  for (int i = 0; i < 40; ++i) {
    h.invoke_at(kMillisecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  // Traffic after the recovery lets the stall detector notice the gap.
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(4 * kSecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  h.cluster.run_until(20 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 50u);
  EXPECT_EQ(h.machines[3]->value(), 50u) << "recovered replica failed to catch up";
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
}

TEST(ReplicaFaultTest, ColdRestartedReplicaRebuildsFromProtocol) {
  ReplicaParams p = fault_params();
  p.checkpoint_period = 8;
  p.state_transfer_gap = 4;
  p.stall_timeout = runtime::msec(400);
  SimHarness h(4, 1, p);
  // The replacement loses all volatile state: a brand-new Replica object
  // takes over process 3 and must rebuild through state transfer alone.
  CounterMachine fresh_machine;
  Replica fresh(3, h.config, p, &fresh_machine);
  h.cluster.schedule_at(500 * kMillisecond, [&h] { h.cluster.crash(3); });
  h.cluster.schedule_at(3 * kSecond, [&h, &fresh] { h.cluster.restart(3, &fresh); });
  for (int i = 0; i < 40; ++i) {
    h.invoke_at(kMillisecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(4 * kSecond + i * 20 * kMillisecond, 0, delta_payload(1));
  }
  h.cluster.run_until(20 * kSecond);
  EXPECT_EQ(h.machines[0]->value(), 50u);
  EXPECT_EQ(fresh_machine.value(), 50u) << "cold restart failed to catch up";
  EXPECT_EQ(fresh_machine.history(), h.machines[0]->history());
}

TEST(ReplicaFaultTest, ForgedForwardCannotPoisonDeduplication) {
  // A FORWARD injects a (client, seq) pair straight into the batch pool. If
  // replicas accepted them from anyone, one forged message claiming a huge
  // seq for a real client would execute, advance that client's dedup record,
  // and silently drop every later genuine request. Forwards are therefore
  // only accepted from cluster members, signed.
  SimHarness h(4, 1, fault_params());
  Request forged;
  forged.client = SimHarness::kClientBase;
  forged.seq = 50;  // far ahead of anything the real client sent
  forged.payload = delta_payload(999);
  for (runtime::ProcessId r = 0; r < 4; ++r) {
    // Unsigned, from a non-member (process 99): must be rejected outright.
    h.send_raw_at(5 * kMillisecond, r, encode(Forward{forged, {}}));
  }
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(50 * kMillisecond + i * 10 * kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(10 * kSecond);
  EXPECT_EQ(completions, 10);  // no request was dedup-dropped
  EXPECT_EQ(h.machines[0]->value(), 10u);  // and the forgery never executed
  EXPECT_TRUE(h.replicas_agree({0, 1, 2, 3}));
}

TEST(ReplicaFaultTest, WheatLeaderCrashRollsBackCleanly) {
  ReplicaParams p = fault_params();
  p.tentative_execution = true;
  auto cfg = ClusterConfig::wheat({0, 1, 2, 3, 4}, {0, 1});
  SimHarness h(5, 1, p, cfg);
  h.invoke_at(kMillisecond, 0, delta_payload(1));
  h.cluster.schedule_at(500 * kMillisecond, [&h] { h.cluster.crash(0); });
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    h.invoke_at(kSecond + i * 10 * kMillisecond, 0, delta_payload(1),
                [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(20 * kSecond);
  EXPECT_EQ(completions, 10);
  EXPECT_TRUE(h.replicas_agree({1, 2, 3, 4}));
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(h.machines[i]->value(), 11u);
    EXPECT_EQ(h.replicas[i]->last_confirmed(), h.replicas[i]->last_applied());
  }
}

TEST(ReplicaFaultTest, NonMembersCannotVouchForState) {
  // A learner polls the {0..3} cluster for state. Two processes outside the
  // configuration answer with the same forged snapshot: two matching replies
  // are f+1, so they must not count unless their senders are members.
  SimHarness h(4, 0, fault_params());
  const auto cfg4 = ClusterConfig::classic({0, 1, 2, 3});
  CounterMachine learner_app;
  Replica learner(4, cfg4, fault_params(), &learner_app);
  h.cluster.add_process(4, &learner, sim::CpuConfig{});
  RawSender second_forger;
  h.cluster.add_process(98, &second_forger);

  Writer app;  // CounterMachine snapshot: value, history digest
  app.u64(999999);
  app.raw(ByteView(crypto::Hash256{}.data(), 32));
  Writer core;  // app, config, cursor, empty dedup and reply tables
  core.bytes(app.data());
  core.bytes(cfg4.encode());
  core.u64(5);
  core.u32(0);
  core.u32(0);
  const Bytes forged = encode(StateReply{5, std::move(core).take(), {}, 0});
  h.cluster.schedule_at(50 * kMillisecond, [&] {
    h.raw_sender.send_raw(4, forged);
    second_forger.send_raw(4, forged);
  });
  h.cluster.run_until(2 * kSecond);

  EXPECT_NE(learner_app.value(), 999999u);
  EXPECT_EQ(learner.last_confirmed(), 0u);
}

TEST(ReplicaFaultTest, ReconfigurationAddsLearnerNode) {
  ReplicaParams p = fault_params();
  p.checkpoint_period = 8;

  const auto cfg4 = ClusterConfig::classic({0, 1, 2, 3});
  runtime::SimCluster cluster(
      sim::make_lan(104, sim::kMillisecond / 10, sim::NetworkConfig{}, 5), 5);

  std::vector<std::unique_ptr<CounterMachine>> machines;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::uint32_t i = 0; i < 4; ++i) {
    machines.push_back(std::make_unique<CounterMachine>());
    replicas.push_back(std::make_unique<Replica>(i, cfg4, p, machines.back().get()));
    cluster.add_process(i, replicas.back().get(), sim::CpuConfig{});
  }
  // Process 4 starts as a learner: it knows the seed config but is not in it.
  machines.push_back(std::make_unique<CounterMachine>());
  replicas.push_back(std::make_unique<Replica>(4, cfg4, p, machines.back().get()));
  cluster.add_process(4, replicas.back().get(), sim::CpuConfig{});

  Client client(cfg4);
  cluster.add_process(100, &client);

  // Phase 1: some work in the 4-node group.
  for (int i = 0; i < 10; ++i) {
    cluster.schedule_at(kMillisecond + i * 10 * kMillisecond,
                        [&client] { client.invoke_async(delta_payload(1)); });
  }
  // Phase 2: admit node 4.
  cluster.schedule_at(kSecond, [&client] {
    client.invoke(encode_reconfig(ReconfigOp::add, 4), nullptr,
                  RequestKind::reconfig);
  });
  // Phase 3: more work; node 4 must execute it too.
  for (int i = 0; i < 10; ++i) {
    cluster.schedule_at(4 * kSecond + i * 10 * kMillisecond,
                        [&client] { client.invoke_async(delta_payload(1)); });
  }
  cluster.run_until(20 * kSecond);

  EXPECT_EQ(replicas[0]->config().n(), 5u);
  EXPECT_TRUE(replicas[4]->is_active_member());
  EXPECT_EQ(machines[4]->value(), machines[0]->value());
  EXPECT_EQ(machines[0]->value(), 20u);
  EXPECT_EQ(machines[4]->history(), machines[0]->history());
}

TEST(ReplicaFaultTest, ReconfigurationRemovesNode) {
  ReplicaParams p = fault_params();
  const auto cfg5 = ClusterConfig::classic({0, 1, 2, 3, 4});
  runtime::SimCluster cluster(
      sim::make_lan(104, sim::kMillisecond / 10, sim::NetworkConfig{}, 6), 6);

  std::vector<std::unique_ptr<CounterMachine>> machines;
  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::uint32_t i = 0; i < 5; ++i) {
    machines.push_back(std::make_unique<CounterMachine>());
    replicas.push_back(std::make_unique<Replica>(i, cfg5, p, machines.back().get()));
    cluster.add_process(i, replicas.back().get(), sim::CpuConfig{});
  }
  Client client(cfg5);
  cluster.add_process(100, &client);

  cluster.schedule_at(kMillisecond,
                      [&client] { client.invoke_async(delta_payload(1)); });
  cluster.schedule_at(500 * kMillisecond, [&client] {
    client.invoke(encode_reconfig(ReconfigOp::remove, 4), nullptr,
                  RequestKind::reconfig);
  });
  for (int i = 0; i < 10; ++i) {
    cluster.schedule_at(2 * kSecond + i * 10 * kMillisecond,
                        [&client] { client.invoke_async(delta_payload(1)); });
  }
  cluster.run_until(10 * kSecond);

  EXPECT_EQ(replicas[0]->config().n(), 4u);
  EXPECT_FALSE(replicas[4]->is_active_member());
  EXPECT_EQ(machines[0]->value(), 11u);
  EXPECT_EQ(machines[0]->history(), machines[1]->history());
}

}  // namespace
}  // namespace bft::smr::testing
