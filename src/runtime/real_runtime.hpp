// Real (threaded) runtime: each actor gets an event-loop thread fed by an
// in-memory queue, a shared timer service and a private worker pool. Used by
// integration tests and the runnable examples; semantics match the simulated
// runtime so protocol code runs unchanged.
//
// The cluster optionally plugs into a Transport (transport.hpp): sends to
// process ids it does not host are forwarded there, and frames the transport
// delivers are enqueued like local traffic. One RealCluster per OS process
// bridged by a TcpTransport is exactly the multi-process deployment shape —
// see tcp_runtime.hpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/actor.hpp"
#include "runtime/runner.hpp"
#include "runtime/transport.hpp"
#include "util/queue.hpp"

namespace bft::runtime {

struct RealClusterOptions {
  /// Per-process inbox bound. Message deliveries beyond it are dropped (and
  /// counted) — Env::send is best-effort, so overload sheds load instead of
  /// deadlocking event loops that flood each other. Control work (timers,
  /// post(), worker completions) is never dropped. 0 = unbounded.
  std::size_t inbox_capacity = 65536;
  /// Outbound sink for destinations this cluster does not host (borrowed;
  /// must outlive the cluster). The caller starts/stops the transport and
  /// routes its inbound frames to deliver_local().
  Transport* transport = nullptr;
  /// Registry to export (borrowed; must outlive the cluster). The cluster
  /// always records runtime.inbox_depth / runtime.inbox_dropped, and its
  /// hosted runners the runner.* staged-pipeline table (OBSERVABILITY.md),
  /// all into this registry; when null, into one the cluster owns.
  obs::MetricsRegistry* metrics = nullptr;
};

class RealCluster {
 public:
  RealCluster();
  explicit RealCluster(RealClusterOptions options);
  ~RealCluster();

  RealCluster(const RealCluster&) = delete;
  RealCluster& operator=(const RealCluster&) = delete;

  /// Registers an actor (not owned) with a `worker_threads`-wide staged
  /// runner (runner.hpp): message prologues (Actor::prologue — signature
  /// verification) and submit_work jobs (block signing) run concurrently on
  /// the workers while epilogues/completions apply on the event loop in
  /// submission order. `worker_threads == 0` selects the serial reference
  /// path: prologue + consume inline on the event loop, submit_work inline
  /// at the call site. Must be called before start().
  void add_process(ProcessId id, Actor* actor, std::size_t worker_threads = 2);

  /// Spawns all event loops. Each actor's on_start runs first on its own
  /// loop, before anything delivered or posted to it earlier.
  void start();
  /// Stops loops and joins threads; idempotent.
  void stop();

  /// Injects a message from outside any actor (test driver convenience).
  /// Routes like an actor send: local processes get it in-memory, anything
  /// else goes to the attached transport.
  void send_external(ProcessId from, ProcessId to, Payload payload);

  /// Delivers an inbound frame to a locally hosted process; unknown
  /// destinations are dropped. Thread-safe — this is the Transport's
  /// DeliverFn target.
  void deliver_local(ProcessId from, ProcessId to, Payload payload);

  /// Runs `fn` on the actor's own event-loop thread (e.g. to call methods on
  /// the actor without racing its handlers).
  void post(ProcessId to, std::function<void()> fn);

  /// Stops delivering anything to `id` (crash fault).
  void crash(ProcessId id);

  TimePoint now() const;

  /// Messages dropped because a bounded inbox was full (0 until start).
  std::uint64_t inbox_dropped() const;

 private:
  struct Process;
  class ProcessEnv;

  /// Resolves a send: local inbox, else transport, else drop.
  void route(ProcessId from, ProcessId to, Payload payload);
  /// Queues `fn` on `to`'s event loop. `droppable` marks best-effort message
  /// deliveries, shed when the bounded inbox is full; control work blocks.
  void enqueue(ProcessId to, std::function<void()> fn, bool droppable = false);
  void timer_loop();

  struct TimerEntry {
    std::chrono::steady_clock::time_point deadline;
    ProcessId process;
    std::uint64_t timer_id;
    std::uint64_t seq;
    bool operator>(const TimerEntry& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return seq > other.seq;
    }
  };

  RealClusterOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<ProcessId, std::unique_ptr<Process>> processes_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> inbox_dropped_{0};
  obs::RegistryOrOwned metrics_;  // also handed to every hosted runner
  obs::Gauge& inbox_depth_gauge_;  // most recently written inbox
  obs::Counter& inbox_dropped_counter_;

  std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  std::vector<TimerEntry> timer_heap_;
  std::uint64_t timer_seq_ = 0;
  std::thread timer_thread_;
};

}  // namespace bft::runtime
