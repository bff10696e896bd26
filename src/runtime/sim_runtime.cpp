#include "runtime/sim_runtime.hpp"

#include <stdexcept>

namespace bft::runtime {

// Env implementation backing one simulated process. Logical time within a
// handler is the handler's activation time advanced by any charge_cpu calls,
// so messages sent after a charge leave after the modelled work completes.
class SimCluster::ProcessEnv final : public Env {
 public:
  ProcessEnv(SimCluster& cluster, ProcessId id)
      : cluster_(cluster), id_(id) {}

  ProcessId self() const override { return id_; }

  TimePoint now() const override {
    return std::max(logical_now_, cluster_.scheduler_.now());
  }

  void send(ProcessId to, Payload payload) override {
    if (cluster_.crashed_.count(id_)) return;
    sim::LinkVerdict verdict;
    if (cluster_.filter_) verdict = cluster_.filter_(id_, to, payload.view());
    if (!verdict.action && cluster_.fault_model_) {
      verdict = cluster_.fault_model_->decide(id_, to, now());
    }
    if (!verdict.action) {
      transmit(to, std::move(payload), now());
      return;
    }

    switch (*verdict.action) {
      case sim::LinkFaultKind::drop:
        return;
      case sim::LinkFaultKind::delay:
        // The message is already on the wire: it leaves even if the sender
        // crashes meanwhile, so the deferred transmit skips the crash check.
        cluster_.scheduler_.schedule_at(
            now() + std::max<Duration>(verdict.delay, 0),
            [this, to, payload = std::move(payload)]() mutable {
              transmit(to, std::move(payload), cluster_.scheduler_.now());
            });
        return;
      case sim::LinkFaultKind::duplicate: {
        Payload copy = payload;  // refcount bump, no deep copy
        cluster_.scheduler_.schedule_at(
            now() + std::max<Duration>(verdict.delay, 1),
            [this, to, copy = std::move(copy)]() mutable {
              transmit(to, std::move(copy), cluster_.scheduler_.now());
            });
        transmit(to, std::move(payload), now());
        return;
      }
      case sim::LinkFaultKind::corrupt:
        if (!payload.empty()) {
          // The only path that mutates bytes: corrupt a private copy so other
          // holders of the shared buffer stay untouched.
          Bytes mutated = payload.to_bytes();
          const std::size_t pos = cluster_.fault_rng_.uniform(mutated.size());
          mutated[pos] ^=
              static_cast<std::uint8_t>(1 + cluster_.fault_rng_.uniform(255));
          payload = Payload(std::move(mutated));
        }
        transmit(to, std::move(payload), now());
        return;
    }
  }

  std::uint64_t set_timer(Duration delay) override {
    Process& proc = cluster_.process(id_);
    const std::uint64_t id = proc.next_timer_id++;
    const std::uint64_t inc = proc.incarnation;
    cluster_.scheduler_.schedule_at(now() + delay, [this, id, inc] {
      Process& p = cluster_.process(id_);
      if (p.incarnation != inc || cluster_.crashed_.count(id_)) return;
      if (p.cancelled_timers.erase(id) > 0) return;
      cluster_.timers_fired_->add();
      activate(cluster_.scheduler_.now());
      p.actor->on_timer(id);
    });
    return id;
  }

  void cancel_timer(std::uint64_t id) override {
    cluster_.process(id_).cancelled_timers.insert(id);
  }

  void submit_work(Duration cost_hint, std::function<Bytes()> work,
                   std::function<void(Bytes)> done) override {
    Process& proc = cluster_.process(id_);
    const std::uint64_t inc = proc.incarnation;
    // Execute the computation immediately (zero wall-clock assumptions would
    // break signatures); deliver the result at the modelled completion time.
    Bytes result = work();
    const sim::SimTime completion =
        proc.cpu ? proc.cpu->run_worker_job(now(), cost_hint)
                 : now() + cost_hint;
    cluster_.scheduler_.schedule_at(
        completion, [this, inc, done = std::move(done),
                     result = std::move(result)]() mutable {
          Process& p = cluster_.process(id_);
          if (p.incarnation != inc || cluster_.crashed_.count(id_)) return;
          cluster_.worker_jobs_->add();
          activate(cluster_.scheduler_.now());
          done(std::move(result));
        });
  }

  void charge_cpu(Duration cost) override {
    Process& proc = cluster_.process(id_);
    if (!proc.cpu) return;
    logical_now_ = proc.cpu->run_protocol_job(now(), cost);
  }

  Rng& rng() override { return cluster_.process(id_).rng; }

  /// Marks the start of a handler at simulation time `t`.
  void activate(sim::SimTime t) { logical_now_ = t; }

 private:
  /// Hands one message (possibly a delayed or duplicated copy) to the network
  /// model starting at `start`.
  void transmit(ProcessId to, Payload payload, sim::SimTime start) {
    // Two-phase transfer: egress + propagation now (send order), ingress
    // admission as a scheduled event so the receiving NIC serves messages in
    // arrival order regardless of sender distance.
    const auto transit =
        cluster_.network_.begin_transit(id_, to, payload.size(), start);
    if (!transit.needs_ingress) {
      cluster_.deliver_message(id_, to, std::move(payload), transit.arrival);
      return;
    }
    cluster_.scheduler_.schedule_at(
        transit.arrival,
        [this, to, payload = std::move(payload)]() mutable {
          const sim::SimTime rx_done = cluster_.network_.finish_transit(
              to, payload.size(), cluster_.scheduler_.now());
          cluster_.deliver_message(id_, to, std::move(payload), rx_done);
        });
  }

  SimCluster& cluster_;
  ProcessId id_;
  sim::SimTime logical_now_ = 0;
};

SimCluster::SimCluster(sim::Network network, std::uint64_t seed)
    : network_(std::move(network)),
      seed_(seed),
      seed_rng_(seed),
      fault_rng_(seed ^ 0xc0ffee5eedULL) {
  set_metrics(own_metrics_);
}

SimCluster::~SimCluster() = default;

void SimCluster::add_process(ProcessId id, Actor* actor,
                             std::optional<sim::CpuConfig> cpu) {
  if (actor == nullptr) throw std::invalid_argument("add_process: null actor");
  if (processes_.count(id) > 0) {
    throw std::invalid_argument("add_process: duplicate process id");
  }
  Process proc;
  proc.actor = actor;
  proc.env = std::make_unique<ProcessEnv>(*this, id);
  if (cpu) proc.cpu = std::make_unique<sim::CpuModel>(*cpu);
  proc.rng = seed_rng_.fork();
  processes_.emplace(id, std::move(proc));
}

void SimCluster::start() {
  for (auto& [id, proc] : processes_) {
    (void)id;
    if (!proc.started) {
      proc.started = true;
      proc.actor->on_start(*proc.env);
    }
  }
}

void SimCluster::run_until(sim::SimTime deadline) {
  start();
  scheduler_.run_until(deadline);
}

void SimCluster::crash(ProcessId id) {
  if (!crashed_.insert(id).second) return;  // already down
  const auto it = processes_.find(id);
  if (it != processes_.end()) {
    // Invalidate every pending timer and worker completion: a recovered
    // process must not observe events armed by its previous incarnation.
    ++it->second.incarnation;
    it->second.cancelled_timers.clear();
    it->second.epilogue_release = 0;  // staged epilogues died with the process
  }
}

void SimCluster::recover(ProcessId id) {
  if (crashed_.erase(id) == 0) return;  // not crashed: nothing to do
  Process& proc = process(id);
  if (proc.started) {
    proc.env->activate(scheduler_.now());
    proc.actor->on_recover();
  }
}

void SimCluster::restart(ProcessId id, Actor* fresh) {
  if (fresh == nullptr) throw std::invalid_argument("restart: null actor");
  Process& proc = process(id);
  crashed_.erase(id);
  ++proc.incarnation;
  proc.cancelled_timers.clear();
  proc.actor = fresh;
  proc.started = true;
  proc.env->activate(scheduler_.now());
  fresh->on_start(*proc.env);
}

void SimCluster::install_fault_plan(const sim::FaultPlan& plan) {
  for (const sim::ProcessFault& c : plan.crashes) {
    scheduler_.schedule_at(c.at, [this, p = c.process] { crash(p); });
  }
  for (const sim::ProcessFault& r : plan.recoveries) {
    scheduler_.schedule_at(r.at, [this, p = r.process] { recover(p); });
  }
  fault_model_.emplace(plan, seed_);
}

void SimCluster::schedule_at(sim::SimTime at, std::function<void()> fn) {
  scheduler_.schedule_at(at, std::move(fn));
}

double SimCluster::protocol_utilization(ProcessId id) const {
  const auto it = processes_.find(id);
  if (it == processes_.end() || !it->second.cpu) return 0.0;
  return it->second.cpu->protocol_utilization();
}

void SimCluster::deliver_message(ProcessId from, ProcessId to, Payload payload,
                                 sim::SimTime arrival) {
  if (processes_.count(to) == 0) return;  // unknown destination: drop
  scheduler_.schedule_at(
      arrival, [this, from, to, payload = std::move(payload)]() mutable {
        if (crashed_.count(to)) return;
        Process& proc = process(to);
        proc.env->activate(scheduler_.now());
        // Two-phase delivery: the thread-safe prologue always executes here
        // (it is deterministic and side-effect free); what changes with the
        // staged pipeline is only where its cost is charged.
        Verified v = proc.actor->prologue(from, std::move(payload));
        const bool staged = proc.cpu != nullptr &&
                            proc.cpu->prologue_worker_count() > 0 &&
                            v.prologue_cost > 0;
        if (!staged) {
          // Serial reference path (--workers 0): consume immediately in the
          // same event; consume() charges the full handler cost itself, so
          // this is byte-identical to the old single-phase delivery.
          messages_delivered_->add();
          proc.actor->consume(std::move(v));
          return;
        }
        // Staged path: the prologue share is served by one of the k
        // prologue workers, and the epilogue is released in arrival order
        // (the ordered reorder-buffer guarantee, modelled as a running
        // release cursor since arrivals are processed in time order).
        const sim::SimTime ready =
            proc.cpu->run_prologue_job(scheduler_.now(), v.prologue_cost);
        const sim::SimTime release = std::max(ready, proc.epilogue_release);
        proc.epilogue_release = release;
        v.prologue_charged = v.prologue_cost;
        const std::uint64_t inc = proc.incarnation;
        scheduler_.schedule_at(release, [this, to, inc, v = std::move(v)]() mutable {
          Process& p = process(to);
          if (p.incarnation != inc || crashed_.count(to)) return;
          messages_delivered_->add();
          p.env->activate(scheduler_.now());
          p.actor->consume(std::move(v));
        });
      });
}

void SimCluster::set_metrics(obs::MetricsRegistry& registry) {
  messages_delivered_ = &registry.counter("sim.messages_delivered",
                                          "messages handed to live actors");
  timers_fired_ =
      &registry.counter("sim.timers_fired", "timer callbacks delivered");
  worker_jobs_ = &registry.counter("sim.worker_jobs",
                                   "worker-pool completions delivered");
}

void SimCluster::export_metrics(obs::MetricsRegistry& registry,
                                ProcessId utilization_of) const {
  registry.gauge("sim.executed_events", "scheduler events executed")
      .set(static_cast<std::int64_t>(executed_events()));
  registry.gauge("sim.now_ns", "simulated clock at export").set(now());
  registry
      .gauge("sim.protocol_utilization_ppm",
             "protocol-thread utilization of the probed node, ppm")
      .set(static_cast<std::int64_t>(protocol_utilization(utilization_of) *
                                     1e6));
}

SimCluster::Process& SimCluster::process(ProcessId id) {
  const auto it = processes_.find(id);
  if (it == processes_.end()) {
    throw std::logic_error("SimCluster: unknown process");
  }
  return it->second;
}

}  // namespace bft::runtime
