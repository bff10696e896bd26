// Lock-light metrics primitives for the ordering pipeline.
//
// The registry hands out stable references to three instrument kinds:
//
//   Counter           monotonic u64, relaxed atomic increments
//   Gauge             signed i64 level, set/add with relaxed atomics
//   LatencyHistogram  fixed-bucket log-linear histogram (HdrHistogram-lite)
//                     with p50/p95/p99 quantile queries
//
// All hot-path operations (add/set/record) are wait-free and allocation-free;
// only instrument registration and export-time snapshots take the registry
// mutex. Instruments are registered by name exactly once — repeated lookups
// with the same name and kind return the same object, so several actors can
// share one registry and their increments aggregate. Every metric name that
// appears in code must be documented in OBSERVABILITY.md (enforced by
// scripts/check_docs.sh, wired into ctest as `docs_lint`).
//
// Timestamps and recorded latencies are plain int64 values; the pipeline
// records nanoseconds as stamped by the runtime `Env` (simulated time under
// SimCluster, wall time under RealCluster).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bft::obs {

/// Monotonic counter. add() is wait-free; value() is a relaxed read intended
/// for quiescent export points (between sim events or after a run).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, pending requests, ...). Unlike Counter it
/// may move in both directions and may be overwritten with set().
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-linear latency histogram with fixed storage.
///
/// Layout: values below 2^kSubBits land in unit-width linear buckets; above
/// that, each power-of-two octave is split into 2^kSubBits equal sub-buckets
/// (relative quantile error <= 1/16 ~ 6%). With kMaxOctave = 47 the histogram
/// spans [0, 2^48) — about 3.3 days in nanoseconds — in 720 buckets; larger
/// values clamp into the last bucket. record() is wait-free and touches one
/// bucket plus the count/sum/max scalars; no allocation ever happens after
/// construction.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16
  static constexpr int kMaxOctave = 47;
  // Octaves kSubBits..kMaxOctave inclusive each contribute kSubBuckets buckets
  // on top of the linear region: 16 + 44 * 16 = 720.
  static constexpr std::size_t kBucketCount =
      kSubBuckets +
      static_cast<std::size_t>(kMaxOctave - kSubBits + 1) * kSubBuckets;
  static_assert(kBucketCount == 720);

  void record(std::int64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Nearest-rank quantile (q in [0,1]) over the bucketed samples; returns the
  /// midpoint of the bucket holding the ranked sample, clamped to max() (exact
  /// for values below 2^kSubBits, <= 1/16 relative error above). Returns 0
  /// when empty.
  std::int64_t quantile(double q) const;

  /// Maps a value to its bucket index (negative values clamp to bucket 0,
  /// values >= 2^48 clamp to the last bucket). Exposed for tests.
  static std::size_t bucket_index(std::int64_t value);
  /// Inclusive lower bound of a bucket. Exposed for tests.
  static std::int64_t bucket_lower(std::size_t index);
  /// Width of a bucket (1 in the linear region, 2^(octave-4) above).
  static std::int64_t bucket_width(std::size_t index);

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Named instrument directory. Thread-safe; returned references stay valid for
/// the registry's lifetime (instruments are heap-allocated and never erased).
class MetricsRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  /// Throws std::invalid_argument if `name` is already bound to another kind.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// `unit` is free-form metadata carried into the export ("ns", "envelopes").
  LatencyHistogram& histogram(const std::string& name,
                              const std::string& unit = "ns",
                              const std::string& help = "");

  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string unit;
    std::string help;
    Kind kind;
    const Counter* counter = nullptr;        // set when kind == kCounter
    const Gauge* gauge = nullptr;            // set when kind == kGauge
    const LatencyHistogram* histogram = nullptr;  // set when kind == kHistogram
  };

  /// Snapshot of all registered instruments, sorted by name. The pointed-to
  /// instruments remain live (and may keep moving) after the call.
  std::vector<Entry> entries() const;

 private:
  struct Slot {
    std::string unit;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
};

/// The registry an instrumented component records into: the one it was
/// given, which is the one that gets exported, or, when it was given none,
/// one it owns and nobody reads. Either way the component resolves its
/// instruments once and records unconditionally.
class RegistryOrOwned {
 public:
  explicit RegistryOrOwned(MetricsRegistry* given)
      : owned_(given == nullptr ? std::make_unique<MetricsRegistry>() : nullptr),
        registry_(given != nullptr ? given : owned_.get()) {}

  MetricsRegistry& operator*() const { return *registry_; }
  MetricsRegistry* operator->() const { return registry_; }
  MetricsRegistry* get() const { return registry_; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
};

}  // namespace bft::obs
