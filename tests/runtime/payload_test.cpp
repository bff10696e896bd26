// Payload handle semantics and the single-allocation fan-out guarantee of
// Env::send: every recipient of a shared Payload observes the same
// underlying buffer — broadcast no longer deep-copies per destination.
#include <gtest/gtest.h>

#include <set>

#include "common/bytes.hpp"
#include "runtime/real_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "read_on_loop.hpp"

namespace bft::runtime {
namespace {

using sim::kMillisecond;

TEST(PayloadTest, CopySharesOneBuffer) {
  Payload a(to_bytes("hello"));
  Payload b = a;
  Payload c = b;
  EXPECT_EQ(a.buffer_id(), b.buffer_id());
  EXPECT_EQ(b.buffer_id(), c.buffer_id());
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_EQ(to_string(c.view()), "hello");
}

TEST(PayloadTest, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
}

TEST(PayloadTest, ImplicitFromBytesPreservesContent) {
  const Bytes raw = to_bytes("payload-bytes");
  Payload p = raw;  // the one copy every recipient will share
  EXPECT_EQ(p.bytes(), raw);
  EXPECT_EQ(p.to_bytes(), raw);
}

/// Records the address of each received payload's first byte — recipients of
/// a shared buffer all see the same address.
class BufferProbe : public Actor {
 public:
  void on_message(ProcessId, ByteView payload) override {
    addresses_.push_back(payload.data());
    contents_.push_back(Bytes(payload.begin(), payload.end()));
  }
  void on_timer(std::uint64_t) override {}

  std::vector<const std::uint8_t*> addresses_;
  std::vector<Bytes> contents_;
};

/// Fans one Payload out to every probe on start.
class FanOutActor : public Actor {
 public:
  explicit FanOutActor(std::vector<ProcessId> peers) : peers_(std::move(peers)) {}

  void on_start(Env& env) override {
    Actor::on_start(env);
    const Payload shared = Payload(to_bytes("broadcast-once"));
    for (ProcessId peer : peers_) env.send(peer, shared);
    use_count_after_sends_ = shared.use_count();
  }
  void on_message(ProcessId, ByteView) override {}
  void on_timer(std::uint64_t) override {}

  std::vector<ProcessId> peers_;
  long use_count_after_sends_ = 0;
};

TEST(PayloadTest, SimFanOutDeliversOneSharedAllocation) {
  SimCluster cluster(sim::make_lan(4, kMillisecond, {}, 1), 3);
  FanOutActor sender({1, 2, 3});
  BufferProbe probes[3];
  cluster.add_process(0, &sender);
  for (ProcessId p = 1; p <= 3; ++p) cluster.add_process(p, &probes[p - 1]);
  cluster.run_until(sim::kSecond);

  // While the three copies sat in flight they all pinned the same buffer:
  // the sender's handle plus three queued references.
  EXPECT_EQ(sender.use_count_after_sends_, 4);

  std::set<const std::uint8_t*> distinct;
  for (const BufferProbe& probe : probes) {
    ASSERT_EQ(probe.addresses_.size(), 1u);
    ASSERT_EQ(to_string(ByteView(probe.contents_[0].data(),
                                 probe.contents_[0].size())),
              "broadcast-once");
    distinct.insert(probe.addresses_[0]);
  }
  EXPECT_EQ(distinct.size(), 1u) << "fan-out deep-copied per destination";
}

TEST(PayloadTest, RealClusterFanOutSharesBuffer) {
  RealCluster cluster;
  FanOutActor sender({1, 2});
  BufferProbe probes[2];
  cluster.add_process(0, &sender);
  cluster.add_process(1, &probes[0]);
  cluster.add_process(2, &probes[1]);
  cluster.start();
  const auto received = [&](ProcessId id) {
    const BufferProbe& probe = probes[id - 1];
    return read_on_loop(cluster, id, [&] { return !probe.addresses_.empty(); });
  };
  for (int spins = 0; spins < 400 && !(received(1) && received(2)); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  ASSERT_EQ(probes[0].addresses_.size(), 1u);
  ASSERT_EQ(probes[1].addresses_.size(), 1u);
  EXPECT_EQ(probes[0].addresses_[0], probes[1].addresses_[0]);
}

TEST(RealRuntimeTest, BoundedInboxShedsOverflow) {
  RealClusterOptions options;
  options.inbox_capacity = 2;
  RealCluster cluster(options);
  BufferProbe probe;
  cluster.add_process(7, &probe, /*workers=*/0);  // serial path: exact bound
  // Before start nothing drains the inbox, so the bound is exact: two
  // deliveries fit, three are shed and counted.
  for (int i = 0; i < 5; ++i) {
    std::string message = "m";
    message += std::to_string(i);
    cluster.deliver_local(0, 7, Payload(to_bytes(message)));
  }
  EXPECT_EQ(cluster.inbox_dropped(), 3u);
}

TEST(RealRuntimeTest, InboxMetricsRegister) {
  obs::MetricsRegistry registry;
  RealClusterOptions options;
  options.inbox_capacity = 1;
  options.metrics = &registry;
  RealCluster cluster(options);
  BufferProbe probe;
  cluster.add_process(1, &probe, /*workers=*/0);  // serial path: exact bound
  cluster.deliver_local(0, 1, Payload(to_bytes("a")));
  cluster.deliver_local(0, 1, Payload(to_bytes("b")));  // shed
  EXPECT_EQ(registry.counter("runtime.inbox_dropped").value(), 1u);
  EXPECT_EQ(registry.gauge("runtime.inbox_depth").value(), 1);
}

}  // namespace
}  // namespace bft::runtime
