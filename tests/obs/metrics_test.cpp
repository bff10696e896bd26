#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

namespace bft::obs {
namespace {

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAddMoveBothWays) {
  Gauge g;
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
}

// --- histogram bucket geometry ---

TEST(LatencyHistogramTest, LinearRegionIsUnitBuckets) {
  for (std::int64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), static_cast<std::size_t>(v));
    EXPECT_EQ(LatencyHistogram::bucket_lower(static_cast<std::size_t>(v)), v);
    EXPECT_EQ(LatencyHistogram::bucket_width(static_cast<std::size_t>(v)), 1);
  }
}

TEST(LatencyHistogramTest, OctaveBoundaries) {
  // First log-linear octave [16, 32) still has width-1 sub-buckets.
  EXPECT_EQ(LatencyHistogram::bucket_index(16), 16u);
  EXPECT_EQ(LatencyHistogram::bucket_index(31), 31u);
  // Octave [32, 64): width 2, starting at index 32.
  EXPECT_EQ(LatencyHistogram::bucket_index(32), 32u);
  EXPECT_EQ(LatencyHistogram::bucket_index(33), 32u);
  EXPECT_EQ(LatencyHistogram::bucket_index(34), 33u);
  EXPECT_EQ(LatencyHistogram::bucket_index(63), 47u);
  EXPECT_EQ(LatencyHistogram::bucket_index(64), 48u);
  EXPECT_EQ(LatencyHistogram::bucket_width(32), 2);
}

TEST(LatencyHistogramTest, BucketGeometryIsConsistent) {
  // Every bucket: its lower bound maps back to it, its last value maps to it,
  // and the next bucket starts exactly one width later.
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
    const std::int64_t lower = LatencyHistogram::bucket_lower(i);
    const std::int64_t width = LatencyHistogram::bucket_width(i);
    EXPECT_EQ(LatencyHistogram::bucket_index(lower), i) << "lower of " << i;
    EXPECT_EQ(LatencyHistogram::bucket_index(lower + width - 1), i)
        << "upper of " << i;
    EXPECT_EQ(LatencyHistogram::bucket_lower(i + 1), lower + width)
        << "gap after " << i;
  }
}

TEST(LatencyHistogramTest, TopOctaveStaysInBounds) {
  // The top octave [2^47, 2^48) must map inside the bucket array; a previous
  // off-by-one-octave in kBucketCount sent these indices past the end.
  const std::int64_t lo = std::int64_t{1} << LatencyHistogram::kMaxOctave;
  EXPECT_LT(LatencyHistogram::bucket_index(lo - 1),
            LatencyHistogram::kBucketCount);
  EXPECT_EQ(LatencyHistogram::bucket_index(lo),
            LatencyHistogram::kBucketCount - LatencyHistogram::kSubBuckets);
  EXPECT_EQ(LatencyHistogram::bucket_index(2 * lo - 1),
            LatencyHistogram::kBucketCount - 1);
  // record() on a top-octave value must hit a real bucket, not adjacent
  // scalars (ASan/TSan builds catch the out-of-bounds write).
  LatencyHistogram h;
  h.record(lo);
  h.record(2 * lo - 1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), 2 * lo - 1);
  EXPECT_EQ(h.quantile(0.0),
            LatencyHistogram::bucket_lower(LatencyHistogram::bucket_index(lo)) +
                LatencyHistogram::bucket_width(LatencyHistogram::bucket_index(lo)) / 2);
}

TEST(LatencyHistogramTest, OutOfRangeValuesClamp) {
  EXPECT_EQ(LatencyHistogram::bucket_index(-5), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index((std::int64_t{1} << 48) - 1),
            LatencyHistogram::kBucketCount - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::int64_t{1} << 48),
            LatencyHistogram::kBucketCount - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(std::int64_t{1} << 50),
            LatencyHistogram::kBucketCount - 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(
                std::numeric_limits<std::int64_t>::max()),
            LatencyHistogram::kBucketCount - 1);
}

// --- quantiles ---

TEST(LatencyHistogramTest, QuantilesExactInLinearRegion) {
  LatencyHistogram h;
  for (std::int64_t v = 1; v <= 10; ++v) h.record(v);
  // Nearest-rank over 10 samples: p50 -> rank 5 -> value 5 (unit buckets are
  // exact: midpoint of a width-1 bucket is its value).
  EXPECT_EQ(h.quantile(0.50), 5);
  EXPECT_EQ(h.quantile(0.0), 1);
  EXPECT_EQ(h.quantile(1.0), 10);
  EXPECT_EQ(h.quantile(0.95), 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55);
  EXPECT_EQ(h.max(), 10);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(LatencyHistogramTest, QuantileOfEmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogramTest, QuantileRelativeErrorBounded) {
  // In the log-linear region the reported midpoint must stay within one
  // sub-bucket (1/16 relative) of the recorded value.
  for (const std::int64_t v : {std::int64_t{1905000}, std::int64_t{123456789},
                               (std::int64_t{1} << 40) + 12345}) {
    LatencyHistogram h;
    h.record(v);
    const std::int64_t est = h.quantile(0.5);
    EXPECT_LE(std::abs(est - v), v / LatencyHistogram::kSubBuckets)
        << "value " << v;
  }
}

TEST(LatencyHistogramTest, QuantileNeverExceedsMax) {
  // 100 lands in the bucket [100, 104), whose midpoint 102 lies above every
  // recorded sample; the estimate must clamp to max().
  LatencyHistogram h;
  for (int i = 0; i < 5; ++i) h.record(100);
  EXPECT_LE(h.quantile(0.5), 100);
  EXPECT_LE(h.quantile(0.99), h.max());
}

// --- registry ---

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count", "help");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsRegistryTest, KindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x"), std::invalid_argument);
  registry.histogram("h", "ns");
  EXPECT_THROW(registry.counter("h"), std::invalid_argument);
}

TEST(MetricsRegistryTest, EntriesSortedWithMetadata) {
  MetricsRegistry registry;
  registry.histogram("b.hist", "envelopes", "fill");
  registry.counter("a.count", "events");
  registry.gauge("c.gauge");
  const auto entries = registry.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a.count");
  EXPECT_EQ(entries[0].kind, MetricsRegistry::Kind::kCounter);
  EXPECT_EQ(entries[0].help, "events");
  EXPECT_EQ(entries[1].name, "b.hist");
  EXPECT_EQ(entries[1].unit, "envelopes");
  EXPECT_EQ(entries[2].name, "c.gauge");
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsLossless) {
  // Hot-path operations are wait-free; registration takes the registry mutex.
  // Hammer both from several threads (run under BFT_SANITIZE=thread to let
  // TSan audit the claim) and check nothing is lost.
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr std::int64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      Counter& c = registry.counter("shared.count");
      Gauge& g = registry.gauge("shared.gauge");
      LatencyHistogram& h = registry.histogram("shared.hist");
      for (std::int64_t i = 1; i <= kPerThread; ++i) {
        c.add();
        g.add(t % 2 == 0 ? 1 : -1);
        h.record(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared.count").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.gauge("shared.gauge").value(), 0);
  LatencyHistogram& h = registry.histogram("shared.hist");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.sum(), kThreads * (kPerThread * (kPerThread + 1) / 2));
  EXPECT_EQ(h.max(), kPerThread);
}

}  // namespace
}  // namespace bft::obs
