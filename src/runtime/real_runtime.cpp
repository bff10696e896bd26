#include "runtime/real_runtime.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace bft::runtime {

struct RealCluster::Process {
  explicit Process(std::size_t inbox_capacity) : inbox(inbox_capacity) {}

  Actor* actor = nullptr;
  std::unique_ptr<ProcessEnv> env;
  BlockingQueue<std::function<void()>> inbox;
  /// Staged crypto pipeline: message prologues and submit_work jobs run on
  /// its workers; ordered epilogues land back in `inbox` as control items.
  /// Null when the process runs serially (worker_threads == 0).
  std::unique_ptr<WorkerPoolRunner> runner;
  /// Prologues submitted to the runner but not yet finished — the staged
  /// half of the admission bound (the inbox bounds the epilogue half).
  std::atomic<std::uint64_t> staged{0};
  Rng rng{0};
  std::atomic<bool> crashed{false};
  std::atomic<std::uint64_t> next_timer_id{1};
  std::mutex cancel_mutex;
  std::set<std::uint64_t> cancelled_timers;
  std::thread loop;
};

class RealCluster::ProcessEnv final : public Env {
 public:
  ProcessEnv(RealCluster& cluster, ProcessId id, Process& proc)
      : cluster_(cluster), id_(id), proc_(proc) {}

  ProcessId self() const override { return id_; }
  TimePoint now() const override { return cluster_.now(); }

  void send(ProcessId to, Payload payload) override {
    if (proc_.crashed.load(std::memory_order_relaxed)) return;
    cluster_.route(id_, to, std::move(payload));
  }

  std::uint64_t set_timer(Duration delay) override {
    const std::uint64_t id =
        proc_.next_timer_id.fetch_add(1, std::memory_order_relaxed);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay);
    {
      std::lock_guard<std::mutex> lock(cluster_.timer_mutex_);
      cluster_.timer_heap_.push_back(
          TimerEntry{deadline, id_, id, cluster_.timer_seq_++});
      std::push_heap(cluster_.timer_heap_.begin(), cluster_.timer_heap_.end(),
                     std::greater<>());
    }
    cluster_.timer_cv_.notify_one();
    return id;
  }

  void cancel_timer(std::uint64_t id) override {
    std::lock_guard<std::mutex> lock(proc_.cancel_mutex);
    proc_.cancelled_timers.insert(id);
  }

  void submit_work(Duration cost_hint, std::function<Bytes()> work,
                   std::function<void(Bytes)> done) override {
    (void)cost_hint;  // real work takes real time
    if (proc_.runner == nullptr) {
      // Serial reference mode: the work blocks the event loop, exactly the
      // single-threaded execution the sim's --workers 0 models.
      Bytes result = work();
      done(std::move(result));
      return;
    }
    // Staged: the work is a prologue, the completion its ordered epilogue —
    // two signatures submitted back-to-back finish in submission order even
    // if the second worker is faster.
    proc_.runner->submit(
        [work = std::move(work), done = std::move(done)]() mutable -> Epilogue {
          Bytes result = work();
          return [done = std::move(done),
                  result = std::move(result)]() mutable {
            done(std::move(result));
          };
        });
  }

  void charge_cpu(Duration) override {}  // the hardware charges itself

  Rng& rng() override { return proc_.rng; }

 private:
  RealCluster& cluster_;
  ProcessId id_;
  Process& proc_;
};

RealCluster::RealCluster() : RealCluster(RealClusterOptions{}) {}

RealCluster::RealCluster(RealClusterOptions options)
    : options_(options),
      epoch_(std::chrono::steady_clock::now()),
      metrics_(options_.metrics),
      inbox_depth_gauge_(metrics_->gauge(
          "runtime.inbox_depth", "depth of the most recently written inbox")),
      inbox_dropped_counter_(metrics_->counter(
          "runtime.inbox_dropped", "messages shed by full bounded inboxes")) {}

RealCluster::~RealCluster() { stop(); }

void RealCluster::add_process(ProcessId id, Actor* actor,
                              std::size_t worker_threads) {
  if (started_.load()) {
    throw std::logic_error("RealCluster: add_process after start");
  }
  if (actor == nullptr) throw std::invalid_argument("add_process: null actor");
  if (processes_.count(id) > 0) {
    throw std::invalid_argument("add_process: duplicate process id");
  }
  auto proc = std::make_unique<Process>(options_.inbox_capacity);
  proc->actor = actor;
  proc->env = std::make_unique<ProcessEnv>(*this, id, *proc);
  if (worker_threads > 0) {
    WorkerPoolRunnerOptions runner_options;
    runner_options.workers = worker_threads;
    runner_options.metrics = metrics_.get();
    // Epilogues enter the inbox as control items: the sink is invoked in
    // sequence order and the inbox is FIFO, so consume order == arrival
    // order even though prologues complete on arbitrary workers.
    proc->runner = std::make_unique<WorkerPoolRunner>(
        runner_options, [this, id](Epilogue epilogue) {
          enqueue(id, std::move(epilogue), /*droppable=*/false);
        });
  }
  proc->rng = Rng(0x5eed0000 + id);
  processes_.emplace(id, std::move(proc));
}

void RealCluster::start() {
  if (started_.exchange(true)) return;
  timer_thread_ = std::thread([this] { timer_loop(); });
  for (auto& [id, proc] : processes_) {
    (void)id;
    Process* p = proc.get();
    p->loop = std::thread([p] {
      // on_start runs before the first inbox item: a transport may deliver
      // frames before start() spawns this loop, and their handlers need the
      // Env on_start installs.
      if (!p->crashed.load(std::memory_order_relaxed)) {
        p->actor->on_start(*p->env);
      }
      while (auto fn = p->inbox.pop()) {
        if (!p->crashed.load(std::memory_order_relaxed)) (*fn)();
      }
    });
  }
}

void RealCluster::stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_heap_.clear();
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
  // Drain the staged runners first so in-flight prologues can still sink
  // their epilogues, then close inboxes and join loops.
  for (auto& [id, proc] : processes_) {
    (void)id;
    if (proc->runner != nullptr) proc->runner->drain();
  }
  for (auto& [id, proc] : processes_) {
    (void)id;
    proc->inbox.close();
  }
  for (auto& [id, proc] : processes_) {
    (void)id;
    if (proc->loop.joinable()) proc->loop.join();
  }
}

void RealCluster::route(ProcessId from, ProcessId to, Payload payload) {
  const auto it = processes_.find(to);
  if (it != processes_.end()) {
    deliver_local(from, to, std::move(payload));
    return;
  }
  if (options_.transport != nullptr) {
    options_.transport->send(from, to, std::move(payload));
  }
  // No local process and no transport: drop (unknown destination).
}

void RealCluster::send_external(ProcessId from, ProcessId to, Payload payload) {
  route(from, to, std::move(payload));
}

void RealCluster::deliver_local(ProcessId from, ProcessId to, Payload payload) {
  const auto it = processes_.find(to);
  if (it == processes_.end()) return;  // not hosted here: drop
  Process& proc = *it->second;
  if (proc.runner == nullptr) {
    // Serial reference path: prologue + consume back-to-back on the event
    // loop; the delivery is droppable like any message.
    Actor* actor = proc.actor;
    enqueue(
        to,
        [actor, from, payload = std::move(payload)]() mutable {
          actor->consume(actor->prologue(from, std::move(payload)));
        },
        /*droppable=*/true);
    return;
  }
  // Staged path. Message deliveries stay best-effort: the runner queue is
  // admission-bounded like the inbox, so a flood sheds here instead of
  // growing the prologue backlog without bound.
  if (proc.crashed.load(std::memory_order_relaxed)) return;
  if (options_.inbox_capacity != 0 &&
      proc.staged.load(std::memory_order_relaxed) >= options_.inbox_capacity) {
    inbox_dropped_.fetch_add(1, std::memory_order_relaxed);
    inbox_dropped_counter_.add();
    return;
  }
  proc.staged.fetch_add(1, std::memory_order_relaxed);
  Process* p = &proc;
  Actor* actor = proc.actor;
  proc.runner->submit(
      [p, actor, from, payload = std::move(payload)]() mutable -> Epilogue {
        // Decrement before the prologue so a throwing prologue (contained by
        // the runner) cannot leak admission slots.
        p->staged.fetch_sub(1, std::memory_order_relaxed);
        Verified v = actor->prologue(from, std::move(payload));
        return [actor, v = std::move(v)]() mutable {
          actor->consume(std::move(v));
        };
      });
}

void RealCluster::post(ProcessId to, std::function<void()> fn) {
  enqueue(to, std::move(fn));
}

void RealCluster::crash(ProcessId id) {
  const auto it = processes_.find(id);
  if (it != processes_.end()) it->second->crashed.store(true);
}

TimePoint RealCluster::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t RealCluster::inbox_dropped() const {
  return inbox_dropped_.load(std::memory_order_relaxed);
}

void RealCluster::enqueue(ProcessId to, std::function<void()> fn,
                          bool droppable) {
  const auto it = processes_.find(to);
  if (it == processes_.end()) return;  // unknown destination: drop
  Process& proc = *it->second;
  if (proc.crashed.load(std::memory_order_relaxed)) return;
  if (droppable) {
    // Message deliveries are best-effort by contract: when the bounded inbox
    // is full we shed instead of blocking one event loop on another.
    if (!proc.inbox.try_push(std::move(fn))) {
      inbox_dropped_.fetch_add(1, std::memory_order_relaxed);
      inbox_dropped_counter_.add();
      return;
    }
  } else {
    // Control work (timers, post, worker completions) must not be lost;
    // these producers are few and the capacity is sized for message floods.
    proc.inbox.push(std::move(fn));
  }
  inbox_depth_gauge_.set(static_cast<std::int64_t>(proc.inbox.size()));
}

void RealCluster::timer_loop() {
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!stopping_.load()) {
    if (timer_heap_.empty()) {
      timer_cv_.wait_for(lock, std::chrono::milliseconds(50));
      continue;
    }
    const TimerEntry next = timer_heap_.front();
    if (std::chrono::steady_clock::now() < next.deadline) {
      timer_cv_.wait_until(lock, next.deadline);
      continue;
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), std::greater<>());
    timer_heap_.pop_back();
    lock.unlock();
    const auto it = processes_.find(next.process);
    if (it != processes_.end()) {
      Process* p = it->second.get();
      bool cancelled;
      {
        std::lock_guard<std::mutex> cancel_lock(p->cancel_mutex);
        cancelled = p->cancelled_timers.erase(next.timer_id) > 0;
      }
      if (!cancelled) {
        const std::uint64_t tid = next.timer_id;
        enqueue(next.process, [p, tid] { p->actor->on_timer(tid); });
      }
    }
    lock.lock();
  }
}

}  // namespace bft::runtime
