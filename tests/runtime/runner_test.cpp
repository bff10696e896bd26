// Staged runner (runner.hpp): ordered-epilogue guarantees under adversarial
// completion order, prologue-exception containment, and a multi-producer
// stress that TSan can chew on (ctest label `runner`; the sanitizer configs
// run it under BFT_SANITIZE=thread).
#include "runtime/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

namespace bft::runtime {
namespace {

/// Collects released epilogue payloads; the runner contract says the sink is
/// called by one thread at a time, but the mutex keeps TSan happy about the
/// vector either way.
struct OrderSink {
  std::mutex mutex;
  std::vector<int> order;

  EpilogueSink fn() {
    return [this](Epilogue e) {
      if (e) e();
    };
  }
  void record(int value) {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(value);
  }
  std::vector<int> snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return order;
  }
};

// Adversarial completion order: four prologues park on a gate and are
// released 2, 0, 3, 1 — the reorder buffer must still hand epilogues to the
// sink as 0, 1, 2, 3.
TEST(WorkerPoolRunnerTest, EpiloguesReleaseInSubmissionOrder) {
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<bool> open = std::vector<bool>(4, false);
    std::atomic<int> entered{0};

    void wait(int i) {
      entered.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [this, i] { return open[static_cast<std::size_t>(i)]; });
    }
    void release(int i) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        open[static_cast<std::size_t>(i)] = true;
      }
      cv.notify_all();
    }
  } gate;

  OrderSink sink;
  WorkerPoolRunnerOptions options;
  options.workers = 4;  // every parked prologue needs its own worker
  WorkerPoolRunner runner(options, sink.fn());
  EXPECT_EQ(runner.worker_count(), 4u);

  for (int i = 0; i < 4; ++i) {
    runner.submit([&gate, &sink, i]() -> Epilogue {
      gate.wait(i);
      return [&sink, i] { sink.record(i); };
    });
  }
  while (gate.entered.load() < 4) std::this_thread::yield();
  for (int i : {2, 0, 3, 1}) gate.release(i);
  runner.drain();
  EXPECT_EQ(sink.snapshot(), (std::vector<int>{0, 1, 2, 3}));
}

// Random worker timing, many slots: submission order must survive any
// interleaving the scheduler produces.
TEST(WorkerPoolRunnerTest, OrderSurvivesRandomCompletionTiming) {
  OrderSink sink;
  WorkerPoolRunnerOptions options;
  options.workers = 4;
  WorkerPoolRunner runner(options, sink.fn());

  constexpr int kJobs = 300;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> jitter_us(0, 120);
  for (int i = 0; i < kJobs; ++i) {
    const int delay = jitter_us(rng);
    runner.submit([&sink, i, delay]() -> Epilogue {
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
      return [&sink, i] { sink.record(i); };
    });
  }
  runner.drain();
  const std::vector<int> got = sink.snapshot();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// A throwing prologue consumes its slot as a no-op; successors still release,
// in order, and the exception is counted in the registry the runner is given.
TEST(WorkerPoolRunnerTest, ThrowingPrologueDoesNotStallTheSequence) {
  obs::MetricsRegistry registry;
  OrderSink sink;
  WorkerPoolRunnerOptions options;
  options.workers = 2;
  options.metrics = &registry;
  WorkerPoolRunner runner(options, sink.fn());

  runner.submit([&sink]() -> Epilogue {
    return [&sink] { sink.record(0); };
  });
  runner.submit([]() -> Epilogue { throw std::logic_error("contained"); });
  runner.submit([&sink]() -> Epilogue {
    return [&sink] { sink.record(2); };
  });
  runner.drain();
  EXPECT_EQ(sink.snapshot(), (std::vector<int>{0, 2}));
  EXPECT_EQ(registry.counter("runner.prologue_exceptions").value(), 1u);
  EXPECT_EQ(registry.counter("runner.prologues").value(), 3u);
}

TEST(WorkerPoolRunnerTest, DrainWithNothingSubmitted) {
  OrderSink sink;
  WorkerPoolRunnerOptions options;
  options.workers = 2;
  WorkerPoolRunner runner(options, sink.fn());
  runner.drain();  // must not hang
  EXPECT_TRUE(sink.snapshot().empty());
}

// Multi-producer stress (the TSan workout): several submitter threads race
// submissions while workers run and release. Global release order must be a
// valid interleaving — each producer's own values appear in its submission
// order — and nothing is lost or duplicated.
TEST(WorkerPoolRunnerTest, MultiProducerStressKeepsPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 400;

  OrderSink sink;
  WorkerPoolRunnerOptions options;
  options.workers = 3;
  WorkerPoolRunner runner(options, sink.fn());

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&runner, &sink, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        runner.submit([&sink, value]() -> Epilogue {
          return [&sink, value] { sink.record(value); };
        });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  runner.drain();

  const std::vector<int> got = sink.snapshot();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<int> next(kProducers, 0);
  for (int value : got) {
    const int p = value / kPerProducer;
    const int i = value % kPerProducer;
    EXPECT_EQ(i, next[static_cast<std::size_t>(p)])
        << "producer " << p << " released out of submission order";
    next[static_cast<std::size_t>(p)] = i + 1;
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[static_cast<std::size_t>(p)], kPerProducer);
}

// Destruction with work still queued must not deadlock or crash (epilogues
// for unfinished prologues are simply never released).
TEST(WorkerPoolRunnerTest, DestructionWhileBusyIsClean) {
  OrderSink sink;
  for (int round = 0; round < 10; ++round) {
    WorkerPoolRunnerOptions options;
    options.workers = 2;
    WorkerPoolRunner runner(options, sink.fn());
    for (int i = 0; i < 50; ++i) {
      runner.submit([&sink, i]() -> Epilogue {
        return [&sink, i] { sink.record(i); };
      });
    }
    // No drain: the destructor races the queue.
  }
  SUCCEED();
}

}  // namespace
}  // namespace bft::runtime
