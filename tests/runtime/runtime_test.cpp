// Exercises both runtimes through the same actors, checking the semantics
// protocol code depends on: FIFO per pair, timers, work offload, crash.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

#include "runtime/real_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "read_on_loop.hpp"

namespace bft::runtime {
namespace {

using sim::kMillisecond;

/// Replies "pong:<n>" to every "ping:<n>".
class Ponger : public Actor {
 public:
  void on_message(ProcessId from, ByteView payload) override {
    std::string text = to_string(payload);
    if (text.rfind("ping:", 0) == 0) {
      env().send(from, to_bytes("pong:" + text.substr(5)));
    }
  }
  void on_timer(std::uint64_t) override {}
};

/// Sends `count` pings on start and records replies.
class Pinger : public Actor {
 public:
  Pinger(ProcessId peer, int count) : peer_(peer), count_(count) {}

  void on_start(Env& env) override {
    Actor::on_start(env);
    for (int i = 0; i < count_; ++i) {
      env.send(peer_, to_bytes("ping:" + std::to_string(i)));
    }
  }
  void on_message(ProcessId, ByteView payload) override {
    replies_.push_back(to_string(payload));
  }
  void on_timer(std::uint64_t) override {}

  /// Test-driven injection after start (workload scheduling).
  void send_to_peer(const std::string& text) {
    env().send(peer_, to_bytes(text));
  }

  const std::vector<std::string>& replies() const { return replies_; }

 private:
  ProcessId peer_;
  int count_;
  std::vector<std::string> replies_;
};

TEST(SimRuntimeTest, PingPongFifoOrder) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 42);
  Pinger pinger(1, 5);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  cluster.run_until(sim::kSecond);
  ASSERT_EQ(pinger.replies().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pinger.replies()[static_cast<std::size_t>(i)],
              "pong:" + std::to_string(i));
  }
}

TEST(SimRuntimeTest, DeterministicAcrossRuns) {
  auto run = [] {
    SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 9), 7);
    Pinger pinger(1, 20);
    Ponger ponger;
    cluster.add_process(0, &pinger);
    cluster.add_process(1, &ponger);
    cluster.run_until(sim::kSecond);
    return cluster.executed_events();
  };
  EXPECT_EQ(run(), run());
}

class TimerActor : public Actor {
 public:
  void on_start(Env& env) override {
    Actor::on_start(env);
    keep_ = env.set_timer(msec(10));
    cancelled_ = env.set_timer(msec(10));
    env.cancel_timer(cancelled_);
  }
  void on_message(ProcessId, ByteView) override {}
  void on_timer(std::uint64_t id) override { fired_.push_back(id); }

  std::uint64_t keep_ = 0;
  std::uint64_t cancelled_ = 0;
  std::vector<std::uint64_t> fired_;
};

TEST(SimRuntimeTest, TimersFireAndCancel) {
  SimCluster cluster(sim::make_lan(1, 0, {}, 1), 1);
  TimerActor actor;
  cluster.add_process(0, &actor);
  cluster.run_until(sim::kSecond);
  ASSERT_EQ(actor.fired_.size(), 1u);
  EXPECT_EQ(actor.fired_[0], actor.keep_);
}

class Worker : public Actor {
 public:
  void on_start(Env& env) override {
    Actor::on_start(env);
    start_time_ = env.now();
    env.submit_work(
        msec(5), [] { return to_bytes("result"); },
        [this](Bytes r) {
          result_ = to_string(r);
          done_time_ = this->env().now();
        });
  }
  void on_message(ProcessId, ByteView) override {}
  void on_timer(std::uint64_t) override {}

  std::string result_;
  TimePoint start_time_ = 0;
  TimePoint done_time_ = 0;
};

TEST(SimRuntimeTest, SubmitWorkTakesModelledTime) {
  SimCluster cluster(sim::make_lan(1, 0, {}, 1), 1);
  Worker actor;
  cluster.add_process(0, &actor, sim::CpuConfig{});
  cluster.run_until(sim::kSecond);
  EXPECT_EQ(actor.result_, "result");
  EXPECT_GE(actor.done_time_ - actor.start_time_, msec(5));
}

TEST(SimRuntimeTest, CrashStopsDelivery) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 3);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  cluster.crash(1);
  cluster.run_until(sim::kSecond);
  EXPECT_TRUE(pinger.replies().empty());
}

/// Counts recoveries and re-arms a timer on each one.
class RecoveringActor : public Actor {
 public:
  void on_start(Env& env) override {
    Actor::on_start(env);
    env.set_timer(msec(10));
  }
  void on_message(ProcessId from, ByteView) override { senders_.push_back(from); }
  void on_timer(std::uint64_t) override { ++timer_fires_; }
  void on_recover() override {
    ++recoveries_;
    env().set_timer(msec(10));
  }

  int recoveries_ = 0;
  int timer_fires_ = 0;
  std::vector<ProcessId> senders_;
};

TEST(SimRuntimeTest, RecoverResumesDeliveryAndRunsOnRecover) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 0);
  RecoveringActor actor;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &actor);
  cluster.start();
  cluster.schedule_at(5 * kMillisecond, [&] { cluster.crash(1); });
  // Lost while down: the wire is not a mailbox.
  cluster.schedule_at(10 * kMillisecond,
                      [&] { pinger.send_to_peer("during"); });
  cluster.schedule_at(50 * kMillisecond, [&] { cluster.recover(1); });
  cluster.schedule_at(60 * kMillisecond,
                      [&] { pinger.send_to_peer("after"); });
  cluster.run_until(sim::kSecond);
  EXPECT_FALSE(cluster.crashed(1));
  EXPECT_EQ(actor.recoveries_, 1);
  // The pre-crash timer died with the crash; only the re-armed one fires.
  EXPECT_EQ(actor.timer_fires_, 1);
  ASSERT_EQ(actor.senders_.size(), 1u);  // "during" was lost, "after" arrived
}

TEST(SimRuntimeTest, CrashInvalidatesPendingTimers) {
  SimCluster cluster(sim::make_lan(1, 0, {}, 1), 1);
  RecoveringActor actor;
  cluster.add_process(0, &actor);
  cluster.start();
  cluster.schedule_at(1 * kMillisecond, [&] { cluster.crash(0); });
  cluster.schedule_at(2 * kMillisecond, [&] { cluster.recover(0); });
  cluster.run_until(sim::kSecond);
  // Start-time timer (armed at 0, due at 10ms) must not fire after the
  // crash at 1ms; the recovery's re-armed timer is the only survivor.
  EXPECT_EQ(actor.timer_fires_, 1);
}

TEST(SimRuntimeTest, RestartReplacesActorWithFreshState) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 0);
  RecoveringActor first;
  RecoveringActor second;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &first);
  cluster.start();
  cluster.schedule_at(20 * kMillisecond, [&] { cluster.crash(1); });
  cluster.schedule_at(30 * kMillisecond, [&] { cluster.restart(1, &second); });
  cluster.schedule_at(40 * kMillisecond,
                      [&] { pinger.send_to_peer("hello"); });
  cluster.run_until(sim::kSecond);
  // Cold restart: the replacement got on_start (not on_recover) and now
  // receives traffic addressed to the process id.
  EXPECT_EQ(second.recoveries_, 0);
  EXPECT_EQ(second.senders_.size(), 1u);
  EXPECT_GE(second.timer_fires_, 1);
  EXPECT_EQ(first.senders_.size(), 0u);
}

TEST(SimRuntimeTest, FilterDelayPostponesDelivery) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 1);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  cluster.set_filter([](ProcessId from, ProcessId, ByteView) {
    return from == 0 ? sim::LinkVerdict{sim::LinkFaultKind::delay, msec(200)}
                     : sim::LinkVerdict{};
  });
  cluster.run_until(100 * kMillisecond);
  EXPECT_TRUE(pinger.replies().empty());  // ping still in flight
  cluster.run_until(sim::kSecond);
  EXPECT_EQ(pinger.replies().size(), 1u);
}

TEST(SimRuntimeTest, FilterDuplicateDeliversTwoCopies) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 1);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  cluster.set_filter([](ProcessId from, ProcessId, ByteView) {
    return from == 0 ? sim::LinkVerdict{sim::LinkFaultKind::duplicate, msec(5)}
                     : sim::LinkVerdict{};
  });
  cluster.run_until(sim::kSecond);
  EXPECT_EQ(pinger.replies().size(), 2u);  // the ponger answered both copies
}

TEST(SimRuntimeTest, FilterCorruptFlipsExactlyOneByte) {
  class Recorder : public Actor {
   public:
    void on_message(ProcessId, ByteView payload) override {
      received_.emplace_back(payload.begin(), payload.end());
    }
    void on_timer(std::uint64_t) override {}
    std::vector<Bytes> received_;
  };
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 1);
  Recorder recorder;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &recorder);
  cluster.set_filter([](ProcessId from, ProcessId, ByteView) {
    return from == 0 ? sim::LinkVerdict{sim::LinkFaultKind::corrupt}
                     : sim::LinkVerdict{};
  });
  cluster.run_until(sim::kSecond);
  ASSERT_EQ(recorder.received_.size(), 1u);
  const Bytes original = to_bytes("ping:0");
  const Bytes& got = recorder.received_[0];
  ASSERT_EQ(got.size(), original.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != original[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);
}

TEST(SimRuntimeTest, FilterDropsMatchingMessages) {
  SimCluster cluster(sim::make_lan(2, kMillisecond, {}, 1), 1);
  Pinger pinger(1, 4);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  // Drop everything node 1 sends: pings arrive, pongs do not.
  cluster.set_filter([](ProcessId from, ProcessId, ByteView) {
    return from == 1 ? sim::LinkVerdict{sim::LinkFaultKind::drop}
                     : sim::LinkVerdict{};
  });
  cluster.run_until(sim::kSecond);
  EXPECT_TRUE(pinger.replies().empty());
}

TEST(SimRuntimeTest, ChargeCpuAdvancesLogicalTime) {
  class Charger : public Actor {
   public:
    void on_start(Env& env) override {
      Actor::on_start(env);
      before_ = env.now();
      env.charge_cpu(msec(3));
      after_ = env.now();
    }
    void on_message(ProcessId, ByteView) override {}
    void on_timer(std::uint64_t) override {}
    TimePoint before_ = 0, after_ = 0;
  };
  SimCluster cluster(sim::make_lan(1, 0, {}, 1), 1);
  Charger actor;
  cluster.add_process(0, &actor, sim::CpuConfig{});
  cluster.run_until(kMillisecond);
  EXPECT_EQ(actor.after_ - actor.before_, msec(3));
}

TEST(SimRuntimeTest, DuplicateProcessRejected) {
  SimCluster cluster(sim::make_lan(2, 0, {}, 1), 1);
  Ponger a;
  cluster.add_process(0, &a);
  EXPECT_THROW(cluster.add_process(0, &a), std::invalid_argument);
  EXPECT_THROW(cluster.add_process(1, nullptr), std::invalid_argument);
}

// ---- Real runtime: the same actors on actual threads. ----

TEST(RealRuntimeTest, PingPongFifoOrder) {
  RealCluster cluster;
  Pinger pinger(1, 5);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  cluster.start();
  const auto replies = [&] {
    return read_on_loop(cluster, 0, [&] { return pinger.replies().size(); });
  };
  for (int attempt = 0; attempt < 200 && replies() < 5; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  ASSERT_EQ(pinger.replies().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(pinger.replies()[static_cast<std::size_t>(i)],
              "pong:" + std::to_string(i));
  }
}

TEST(RealRuntimeTest, GivenRegistryHoldsEveryClusterAndRunnerInstrument) {
  // The cluster and the runners it hosts record into the registry it is
  // given, never into registries of their own.
  obs::MetricsRegistry registry;
  RealClusterOptions options;
  options.metrics = &registry;
  RealCluster cluster(options);
  Pinger pinger(1, 5);
  Ponger ponger;
  cluster.add_process(0, &pinger, 2);
  cluster.add_process(1, &ponger, 2);
  cluster.start();
  const auto replies = [&] {
    return read_on_loop(cluster, 0, [&] { return pinger.replies().size(); });
  };
  for (int attempt = 0; attempt < 200 && replies() < 5; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  ASSERT_EQ(pinger.replies().size(), 5u);
  std::set<std::string> names;
  for (const auto& entry : registry.entries()) names.insert(entry.name);
  for (const char* name :
       {"runtime.inbox_depth", "runtime.inbox_dropped", "runner.queue_depth",
        "runner.workers", "runner.prologues", "runner.prologue_exceptions",
        "runner.worker_busy_ns", "runner.prologue_ns",
        "runner.reorder_wait_ns"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
  // Five pings and five pongs went through the two staged runners.
  EXPECT_EQ(registry.counter("runner.prologues").value(), 10u);
}

TEST(RealRuntimeTest, TimersFireAndCancel) {
  RealCluster cluster;
  TimerActor actor;
  cluster.add_process(0, &actor);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cluster.stop();
  ASSERT_EQ(actor.fired_.size(), 1u);
  EXPECT_EQ(actor.fired_[0], actor.keep_);
}

TEST(RealRuntimeTest, SubmitWorkDeliversResultOnLoop) {
  RealCluster cluster;
  Worker actor;
  cluster.add_process(0, &actor);
  cluster.start();
  const auto done = [&] {
    return read_on_loop(cluster, 0, [&] { return !actor.result_.empty(); });
  };
  for (int attempt = 0; attempt < 200 && !done(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  EXPECT_EQ(actor.result_, "result");
}

TEST(RealRuntimeTest, CrashStopsDelivery) {
  RealCluster cluster;
  Pinger pinger(1, 3);
  Ponger ponger;
  cluster.add_process(0, &pinger);
  cluster.add_process(1, &ponger);
  cluster.crash(1);
  cluster.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster.stop();
  EXPECT_TRUE(pinger.replies().empty());
}

TEST(RealRuntimeTest, SendExternalInjectsMessages) {
  RealCluster cluster;
  Ponger ponger;
  Pinger sink(1, 0);
  cluster.add_process(1, &ponger);
  cluster.add_process(0, &sink);
  cluster.start();
  cluster.send_external(0, 1, to_bytes("ping:99"));
  const auto replied = [&] {
    return read_on_loop(cluster, 0, [&] { return !sink.replies().empty(); });
  };
  for (int attempt = 0; attempt < 200 && !replied(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.stop();
  ASSERT_EQ(sink.replies().size(), 1u);
  EXPECT_EQ(sink.replies()[0], "pong:99");
}

TEST(RealRuntimeTest, StopIsIdempotent) {
  RealCluster cluster;
  Ponger ponger;
  cluster.add_process(0, &ponger);
  cluster.start();
  cluster.stop();
  cluster.stop();
}

TEST(RealRuntimeTest, AddAfterStartThrows) {
  RealCluster cluster;
  Ponger ponger;
  cluster.add_process(0, &ponger);
  cluster.start();
  Ponger other;
  EXPECT_THROW(cluster.add_process(1, &other), std::logic_error);
  cluster.stop();
}

/// Records the order of on_start and message handling; like a replica's
/// request handler, on_message needs the Env that on_start installs.
class StartOrderProbe : public Actor {
 public:
  void on_start(Env& env) override {
    Actor::on_start(env);
    events_.push_back("start");
  }
  void on_message(ProcessId, ByteView payload) override {
    events_.push_back("msg:" + to_string(payload) + "@" +
                      std::to_string(env().self()));
    handled_.fetch_add(1);
  }
  void on_timer(std::uint64_t) override {}

  std::vector<std::string> events_;  // read after stop()
  std::atomic<int> handled_{0};
};

// A transport can deliver frames before start() spawns the event loop
// (TcpCluster starts its transport first). Such a frame must still be
// handled, and only after on_start, on the serial and the staged path.
TEST(RealRuntimeTest, FramesDeliveredBeforeStartRunAfterOnStart) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    RealCluster cluster;
    StartOrderProbe probe;
    cluster.add_process(5, &probe, workers);
    cluster.deliver_local(0, 5, to_bytes("early"));
    cluster.start();
    for (int attempt = 0; attempt < 400 && probe.handled_.load() == 0;
         ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    cluster.stop();
    EXPECT_EQ(probe.events_,
              (std::vector<std::string>{"start", "msg:early@5"}));
  }
}

}  // namespace
}  // namespace bft::runtime
