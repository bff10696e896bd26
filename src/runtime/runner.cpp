#include "runtime/runner.hpp"

#include <chrono>
#include <utility>

namespace bft::runtime {

WorkerPoolRunner::Instruments::Instruments(obs::MetricsRegistry& reg)
    : queue_depth(reg.gauge("runner.queue_depth",
                            "staged prologues not yet picked up by a worker")),
      workers(reg.gauge("runner.workers", "prologue worker threads per runner")),
      prologues(reg.counter("runner.prologues", "prologues executed")),
      prologue_exceptions(reg.counter(
          "runner.prologue_exceptions",
          "prologues that threw (contained; slot advanced)")),
      worker_busy_ns(reg.counter(
          "runner.worker_busy_ns",
          "total worker time spent inside prologues "
          "(utilization = busy_ns / (workers * wall))")),
      prologue_ns(reg.histogram("runner.prologue_ns", "ns",
                                "prologue execution latency")),
      reorder_wait_ns(reg.histogram(
          "runner.reorder_wait_ns", "ns",
          "time a completed epilogue waited for earlier sequence numbers")) {}

WorkerPoolRunner::WorkerPoolRunner(WorkerPoolRunnerOptions options,
                                   EpilogueSink sink)
    : options_(options),
      sink_(std::move(sink)),
      metrics_(options_.metrics),
      m_(*metrics_) {
  if (options_.workers == 0) options_.workers = 1;
  m_.workers.set(static_cast<std::int64_t>(options_.workers));
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPoolRunner::~WorkerPoolRunner() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void WorkerPoolRunner::submit(Prologue prologue) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(Staged{next_submit_seq_++, std::move(prologue)});
    m_.queue_depth.set(static_cast<std::int64_t>(pending_.size()));
  }
  work_cv_.notify_one();
}

void WorkerPoolRunner::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] {
    return next_release_seq_ == next_submit_seq_ && !releasing_;
  });
}

void WorkerPoolRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
    if (stopping_) return;  // unrun prologues are abandoned; see stop contract
    Staged staged = std::move(pending_.front());
    pending_.pop_front();
    m_.queue_depth.set(static_cast<std::int64_t>(pending_.size()));
    lock.unlock();

    const std::int64_t start = steady_ns();
    Epilogue epilogue;
    try {
      epilogue = staged.prologue();
    } catch (...) {
      m_.prologue_exceptions.add();
    }
    const std::int64_t done = steady_ns();
    m_.prologues.add();
    m_.worker_busy_ns.add(static_cast<std::uint64_t>(done - start));
    m_.prologue_ns.record(done - start);

    lock.lock();
    reorder_.emplace(staged.seq, Ready{std::move(epilogue), done});
    release_ready(lock);
  }
}

void WorkerPoolRunner::release_ready(std::unique_lock<std::mutex>& lock) {
  if (releasing_) return;  // the active releaser will pick up our entry
  releasing_ = true;
  auto it = reorder_.find(next_release_seq_);
  while (it != reorder_.end()) {
    Ready ready = std::move(it->second);
    reorder_.erase(it);
    ++next_release_seq_;
    lock.unlock();
    const std::int64_t waited = steady_ns() - ready.completed_ns;
    m_.reorder_wait_ns.record(waited > 0 ? waited : 0);
    // Sink outside the lock so a momentarily blocked sink (a full inbox the
    // home loop is still draining) does not stall the workers; `releasing_`
    // keeps sink order == sequence order.
    if (ready.epilogue) sink_(std::move(ready.epilogue));
    lock.lock();
    it = reorder_.find(next_release_seq_);
  }
  releasing_ = false;
  drain_cv_.notify_all();
}

std::int64_t WorkerPoolRunner::steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace bft::runtime
