// Staged execution runner: the dsnet SpinOrderedRunner/CTPLOrderedRunner
// pattern. Crypto-heavy message handling is split into two phases:
//
//   * prologue — thread-safe, state-free classification + signature
//     verification. May run concurrently on any worker thread.
//   * epilogue — all state mutation. Must apply in submission order, on the
//     home (event-loop) thread, so protocol order is exactly what it would
//     be under single-threaded execution.
//
// A Prologue returns its Epilogue; WorkerPoolRunner runs prologues on N
// worker threads and a sequence-numbered reorder buffer hands epilogues to
// the sink in submission order no matter how workers interleave. The serial
// reference (`--workers 0`) needs no runner: the runtimes run prologue and
// consume inline on the event loop.
//
// See DESIGN.md §10 for the pipeline diagram and OBSERVABILITY.md for the
// runner.* metric catalogue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace bft::runtime {

/// Ordered state-mutation phase; runs on the home thread via the sink.
using Epilogue = std::function<void()>;
/// Thread-safe verification phase; returns the epilogue to apply (an empty
/// Epilogue means "nothing to do", but still consumes a sequence slot).
using Prologue = std::function<Epilogue()>;
/// Hands a released epilogue to the home thread. The runner calls the sink
/// from at most one thread at a time, in strict submission order, so a sink
/// that appends to a FIFO (an event-loop inbox) preserves protocol order.
using EpilogueSink = std::function<void(Epilogue)>;

struct WorkerPoolRunnerOptions {
  std::size_t workers = 2;
  /// Registry the runner.* instruments (OBSERVABILITY.md) live in (borrowed;
  /// must outlive the runner). Runners given the same registry aggregate, as
  /// RealCluster's hosted runners do; when null the runner records into a
  /// registry of its own.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Pool of workers running prologues concurrently. Epilogues enter a
/// sequence-numbered reorder buffer and are released to the sink in exactly
/// the order their prologues were submitted — an adversarial completion
/// order (slow seq 3, instant seq 4) never reorders state mutation.
///
/// A throwing prologue is contained: the exception is swallowed (counted in
/// runner.prologue_exceptions) and the slot's epilogue becomes a no-op, so
/// the sequence keeps advancing and later epilogues still release.
class WorkerPoolRunner {
 public:
  WorkerPoolRunner(WorkerPoolRunnerOptions options, EpilogueSink sink);
  ~WorkerPoolRunner();

  WorkerPoolRunner(const WorkerPoolRunner&) = delete;
  WorkerPoolRunner& operator=(const WorkerPoolRunner&) = delete;

  /// Stages one prologue. Thread-safe; the sequence slot is taken at call
  /// time, so per-caller submission order is per-caller epilogue order.
  void submit(Prologue prologue);

  /// Blocks until every submitted prologue has run and its epilogue has been
  /// handed to the sink.
  void drain();

  std::size_t worker_count() const { return options_.workers; }

 private:
  struct Staged {
    std::uint64_t seq = 0;
    Prologue prologue;
  };
  struct Ready {
    Epilogue epilogue;
    std::int64_t completed_ns = 0;  // reorder-wait measurement
  };

  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Gauge& queue_depth;
    obs::Gauge& workers;
    obs::Counter& prologues;
    obs::Counter& prologue_exceptions;
    obs::Counter& worker_busy_ns;
    obs::LatencyHistogram& prologue_ns;
    obs::LatencyHistogram& reorder_wait_ns;
  };

  void worker_loop();
  /// Releases every in-order epilogue; at most one thread sinks at a time so
  /// sink order == sequence order.
  void release_ready(std::unique_lock<std::mutex>& lock);
  static std::int64_t steady_ns();

  WorkerPoolRunnerOptions options_;
  EpilogueSink sink_;
  obs::RegistryOrOwned metrics_;
  Instruments m_;

  std::mutex mutex_;
  std::condition_variable work_cv_;    // workers wait for pending prologues
  std::condition_variable drain_cv_;   // drain() waits for the queue to empty
  std::deque<Staged> pending_;
  std::map<std::uint64_t, Ready> reorder_;
  std::uint64_t next_submit_seq_ = 0;
  std::uint64_t next_release_seq_ = 0;
  bool releasing_ = false;  // a thread is currently sinking epilogues
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace bft::runtime
