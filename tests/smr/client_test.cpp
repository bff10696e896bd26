// Client-proxy unit tests: reply-quorum collection, resends, tentative-mode
// thresholds — driven by hand-crafted replies from fake replicas.
#include <gtest/gtest.h>

#include "tests/smr/test_support.hpp"

namespace bft::smr::testing {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Fake replica that records requests and lets the test answer them.
class ScriptedReplica : public runtime::Actor {
 public:
  void on_message(runtime::ProcessId from, ByteView payload) override {
    if (peek_kind(payload) == MsgKind::request) {
      requests.emplace_back(from, decode<Request>(payload));
    }
  }
  void on_timer(std::uint64_t) override {}
  void reply_to(runtime::ProcessId client, std::uint64_t seq, Bytes payload) {
    env().send(client, encode(Reply{seq, 1, std::move(payload)}));
  }
  std::vector<std::pair<runtime::ProcessId, Request>> requests;
};

struct ClientHarness {
  explicit ClientHarness(Client::Params params, std::uint32_t n = 4)
      : cluster(sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 1), 1) {
    std::vector<runtime::ProcessId> members;
    for (std::uint32_t i = 0; i < n; ++i) members.push_back(i);
    client = std::make_unique<Client>(ClusterConfig::classic(members), params);
    for (std::uint32_t i = 0; i < n; ++i) {
      replicas.push_back(std::make_unique<ScriptedReplica>());
      cluster.add_process(i, replicas.back().get());
    }
    cluster.add_process(100, client.get());
  }

  void invoke_at(sim::SimTime at, Bytes payload, Client::ReplyCallback cb) {
    Client* c = client.get();
    cluster.schedule_at(at, [c, payload = std::move(payload),
                             cb = std::move(cb)]() mutable {
      c->invoke(std::move(payload), std::move(cb));
    });
  }

  void reply_at(sim::SimTime at, std::size_t replica, std::uint64_t seq,
                Bytes payload) {
    ScriptedReplica* r = replicas.at(replica).get();
    cluster.schedule_at(at, [r, seq, payload = std::move(payload)]() mutable {
      r->reply_to(100, seq, std::move(payload));
    });
  }

  runtime::SimCluster cluster;
  std::unique_ptr<Client> client;
  std::vector<std::unique_ptr<ScriptedReplica>> replicas;
};

Client::Params slow_resend() {
  Client::Params p;
  p.resend_timeout = runtime::sec(10);
  return p;
}

TEST(ClientTest, RequestBroadcastToAllReplicas) {
  ClientHarness h(slow_resend());
  h.invoke_at(kMillisecond, to_bytes("op"), nullptr);
  h.cluster.run_until(100 * kMillisecond);
  for (auto& r : h.replicas) {
    ASSERT_EQ(r->requests.size(), 1u);
    EXPECT_EQ(r->requests[0].second.payload, to_bytes("op"));
    EXPECT_EQ(r->requests[0].second.seq, 1u);
  }
}

TEST(ClientTest, CompletesAtFPlus1MatchingReplies) {
  ClientHarness h(slow_resend());
  int done = 0;
  Bytes result;
  h.invoke_at(kMillisecond, to_bytes("op"), [&](std::uint64_t, Bytes r) {
    ++done;
    result = std::move(r);
  });
  h.reply_at(10 * kMillisecond, 0, 1, to_bytes("answer"));
  h.cluster.run_until(50 * kMillisecond);
  EXPECT_EQ(done, 0) << "one reply must not suffice (f=1)";
  h.reply_at(60 * kMillisecond, 1, 1, to_bytes("answer"));
  h.cluster.run_until(100 * kMillisecond);
  EXPECT_EQ(done, 1);
  EXPECT_EQ(result, to_bytes("answer"));
  EXPECT_EQ(h.client->completed_count(), 1u);
  EXPECT_EQ(h.client->outstanding_count(), 0u);
}

TEST(ClientTest, MismatchedRepliesDoNotCount) {
  ClientHarness h(slow_resend());
  int done = 0;
  h.invoke_at(kMillisecond, to_bytes("op"),
              [&](std::uint64_t, Bytes) { ++done; });
  h.reply_at(10 * kMillisecond, 0, 1, to_bytes("lie"));
  h.reply_at(11 * kMillisecond, 1, 1, to_bytes("truth"));
  h.cluster.run_until(50 * kMillisecond);
  EXPECT_EQ(done, 0);
  h.reply_at(60 * kMillisecond, 2, 1, to_bytes("truth"));
  h.cluster.run_until(100 * kMillisecond);
  EXPECT_EQ(done, 1);
}

TEST(ClientTest, DuplicateRepliesFromSameReplicaCountOnce) {
  ClientHarness h(slow_resend());
  int done = 0;
  h.invoke_at(kMillisecond, to_bytes("op"),
              [&](std::uint64_t, Bytes) { ++done; });
  for (int i = 0; i < 3; ++i) {
    h.reply_at((10 + i) * kMillisecond, 0, 1, to_bytes("answer"));
  }
  h.cluster.run_until(100 * kMillisecond);
  EXPECT_EQ(done, 0);
}

TEST(ClientTest, TentativeModeNeedsQuorumWeight) {
  Client::Params p = slow_resend();
  p.tentative = true;
  ClientHarness h(p);
  int done = 0;
  h.invoke_at(kMillisecond, to_bytes("op"),
              [&](std::uint64_t, Bytes) { ++done; });
  // f+1 = 2 matching replies are NOT enough in tentative mode.
  h.reply_at(10 * kMillisecond, 0, 1, to_bytes("a"));
  h.reply_at(11 * kMillisecond, 1, 1, to_bytes("a"));
  h.cluster.run_until(50 * kMillisecond);
  EXPECT_EQ(done, 0);
  // Quorum weight (3 of 4) is.
  h.reply_at(60 * kMillisecond, 2, 1, to_bytes("a"));
  h.cluster.run_until(100 * kMillisecond);
  EXPECT_EQ(done, 1);
}

TEST(ClientTest, ResendsOutstandingRequests) {
  Client::Params p;
  p.resend_timeout = runtime::msec(50);
  ClientHarness h(p);
  h.invoke_at(kMillisecond, to_bytes("op"), nullptr);
  h.cluster.run_until(260 * kMillisecond);
  // Original + ~5 resends over 260 ms.
  EXPECT_GE(h.replicas[0]->requests.size(), 4u);
  // After completion, resends stop.
  h.reply_at(261 * kMillisecond, 0, 1, to_bytes("ok"));
  h.reply_at(262 * kMillisecond, 1, 1, to_bytes("ok"));
  h.cluster.run_until(300 * kMillisecond);
  const std::size_t count = h.replicas[0]->requests.size();
  h.cluster.run_until(600 * kMillisecond);
  EXPECT_EQ(h.replicas[0]->requests.size(), count);
}

TEST(ClientTest, AsyncInvocationsAssignSequences) {
  ClientHarness h(slow_resend());
  Client* c = h.client.get();
  h.cluster.schedule_at(kMillisecond, [c] {
    EXPECT_EQ(c->invoke_async(to_bytes("a")), 1u);
    EXPECT_EQ(c->invoke_async(to_bytes("b")), 2u);
  });
  h.cluster.run_until(50 * kMillisecond);
  ASSERT_EQ(h.replicas[2]->requests.size(), 2u);
  EXPECT_EQ(h.client->outstanding_count(), 0u);  // fire-and-forget untracked
}

TEST(ClientTest, RepliesFromNonMembersIgnored) {
  ClientHarness h(slow_resend());
  ScriptedReplica outsider;
  h.cluster.add_process(50, &outsider);
  int done = 0;
  h.invoke_at(kMillisecond, to_bytes("op"),
              [&](std::uint64_t, Bytes) { ++done; });
  h.reply_at(10 * kMillisecond, 0, 1, to_bytes("x"));
  h.cluster.schedule_at(11 * kMillisecond,
                        [&outsider] { outsider.reply_to(100, 1, to_bytes("x")); });
  h.cluster.run_until(100 * kMillisecond);
  EXPECT_EQ(done, 0);
}

}  // namespace
}  // namespace bft::smr::testing
