// Simulated runtime: actors execute inside a discrete-event simulation with
// explicit network and CPU models. Fully deterministic for a given seed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/actor.hpp"
#include "sim/cpu.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace bft::runtime {

class SimCluster {
 public:
  /// `network` decides message delivery times; `seed` feeds per-process RNGs.
  SimCluster(sim::Network network, std::uint64_t seed);
  ~SimCluster();  // out of line: ProcessEnv is incomplete here

  /// Registers an actor (not owned). `cpu` is optional: processes without a
  /// CPU model execute handlers in zero simulated time (clients, frontends).
  void add_process(ProcessId id, Actor* actor,
                   std::optional<sim::CpuConfig> cpu = std::nullopt);

  /// Calls on_start on every actor not yet started. Implicit in run_until.
  void start();

  /// Advances simulated time.
  void run_until(sim::SimTime deadline);
  sim::SimTime now() const { return scheduler_.now(); }
  std::uint64_t executed_events() const { return scheduler_.executed_events(); }

  /// Stops delivering events to `id` (crash fault). Pending timers and worker
  /// completions of the process are invalidated, so a later recover() starts
  /// from a clean event slate.
  void crash(ProcessId id);
  bool crashed(ProcessId id) const { return crashed_.count(id) > 0; }

  /// Resurrects a crashed process with its memory intact (a fast restart from
  /// a warm image). The actor's on_recover() runs so it can re-arm timers;
  /// messages that arrived during the outage are lost.
  void recover(ProcessId id);

  /// Resurrects a crashed process as `fresh`, a brand-new actor with empty
  /// state (a cold restart losing all volatile memory). `fresh` gets
  /// on_start() and must rebuild its state through the protocol (e.g. the
  /// replica state-transfer path).
  void restart(ProcessId id, Actor* fresh);

  /// Installs a message filter consulted on every send; nullptr clears it.
  /// A non-deliver verdict from the filter wins over the fault plan.
  using Filter = std::function<sim::LinkVerdict(ProcessId from, ProcessId to,
                                                ByteView payload)>;
  void set_filter(Filter filter) { filter_ = std::move(filter); }

  /// Schedules the plan's crashes/recoveries and applies its partitions and
  /// link faults to every subsequent send. Call before run_until; replaces
  /// any previously installed plan.
  void install_fault_plan(const sim::FaultPlan& plan);

  /// Schedules an arbitrary callback (workload injection from benches).
  void schedule_at(sim::SimTime at, std::function<void()> fn);

  /// Protocol-thread utilization of a process (0 if it has no CPU model).
  double protocol_utilization(ProcessId id) const;

  /// Records the live runtime counters (sim.messages_delivered,
  /// sim.timers_fired, sim.worker_jobs) into `registry`, the one to export,
  /// from now on; until then the cluster records into a registry of its own.
  /// Recording never touches per-process RNGs or the event order, so
  /// exported runs stay bit-identical to unexported ones.
  void set_metrics(obs::MetricsRegistry& registry);

  /// Writes end-of-run gauges (sim.executed_events, sim.now_ns, and the
  /// protocol utilization of `utilization_of` in parts-per-million). Call at
  /// export time; values are snapshots, not live.
  void export_metrics(obs::MetricsRegistry& registry,
                      ProcessId utilization_of) const;

 private:
  class ProcessEnv;

  struct Process {
    Actor* actor = nullptr;
    std::unique_ptr<ProcessEnv> env;
    std::unique_ptr<sim::CpuModel> cpu;
    Rng rng{0};
    std::uint64_t next_timer_id = 1;
    std::set<std::uint64_t> cancelled_timers;
    bool started = false;
    /// Bumped on every crash; events scheduled for an older incarnation are
    /// discarded when they fire (timers, worker completions).
    std::uint64_t incarnation = 0;
    /// Ordered-epilogue cursor for the staged prologue pipeline (CpuConfig
    /// prologue_workers > 0): consume() of message n is released no earlier
    /// than consume() of message n-1, mirroring WorkerPoolRunner's
    /// sequence-numbered reorder buffer.
    sim::SimTime epilogue_release = 0;
  };

  void deliver_message(ProcessId from, ProcessId to, Payload payload,
                       sim::SimTime arrival);
  Process& process(ProcessId id);

  sim::Scheduler scheduler_;
  sim::Network network_;
  std::uint64_t seed_;
  Rng seed_rng_;
  Rng fault_rng_;  // corrupt-action byte flips
  std::map<ProcessId, Process> processes_;
  std::set<ProcessId> crashed_;
  Filter filter_;
  std::optional<sim::LinkFaultModel> fault_model_;

  // Live runtime counters, in own_metrics_ until set_metrics points them
  // elsewhere.
  obs::MetricsRegistry own_metrics_;
  obs::Counter* messages_delivered_;
  obs::Counter* timers_fired_;
  obs::Counter* worker_jobs_;
};

}  // namespace bft::runtime
