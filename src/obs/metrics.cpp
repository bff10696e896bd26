#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace bft::obs {

void LatencyHistogram::record(std::int64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::size_t LatencyHistogram::bucket_index(std::int64_t value) {
  if (value < 0) return 0;
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int octave = std::bit_width(static_cast<std::uint64_t>(value)) - 1;
  if (octave > kMaxOctave) return kBucketCount - 1;
  const std::size_t sub =
      static_cast<std::size_t>(value >> (octave - kSubBits)) & (kSubBuckets - 1);
  return kSubBuckets + static_cast<std::size_t>(octave - kSubBits) * kSubBuckets +
         sub;
}

std::int64_t LatencyHistogram::bucket_lower(std::size_t index) {
  if (index < kSubBuckets) return static_cast<std::int64_t>(index);
  const std::size_t rel = index - kSubBuckets;
  const int octave = kSubBits + static_cast<int>(rel / kSubBuckets);
  const std::int64_t sub = static_cast<std::int64_t>(rel % kSubBuckets);
  return (std::int64_t{1} << octave) + (sub << (octave - kSubBits));
}

std::int64_t LatencyHistogram::bucket_width(std::size_t index) {
  if (index < kSubBuckets) return 1;
  const int octave = kSubBits + static_cast<int>((index - kSubBuckets) / kSubBuckets);
  return std::int64_t{1} << (octave - kSubBits);
}

std::int64_t LatencyHistogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the smallest rank r (1-based) with r >= q * total.
  std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(total));
  if (static_cast<double>(rank) < q * static_cast<double>(total)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= rank) {
      // A midpoint can lie above every recorded sample; never report more
      // than the largest one.
      return std::min(bucket_lower(i) + bucket_width(i) / 2, max());
    }
  }
  // Counts moved concurrently with the walk; fall back to the max estimate.
  return max();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = slots_.try_emplace(name);
  if (inserted) {
    it->second.kind = Kind::kCounter;
    it->second.help = help;
    it->second.counter = std::make_unique<Counter>();
  } else if (it->second.kind != Kind::kCounter) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with a different kind");
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = slots_.try_emplace(name);
  if (inserted) {
    it->second.kind = Kind::kGauge;
    it->second.help = help;
    it->second.gauge = std::make_unique<Gauge>();
  } else if (it->second.kind != Kind::kGauge) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with a different kind");
  }
  return *it->second.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             const std::string& unit,
                                             const std::string& help) {
  std::lock_guard lock(mu_);
  auto [it, inserted] = slots_.try_emplace(name);
  if (inserted) {
    it->second.kind = Kind::kHistogram;
    it->second.unit = unit;
    it->second.help = help;
    it->second.histogram = std::make_unique<LatencyHistogram>();
  } else if (it->second.kind != Kind::kHistogram) {
    throw std::invalid_argument("metric '" + name +
                                "' already registered with a different kind");
  }
  return *it->second.histogram;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::entries() const {
  std::lock_guard lock(mu_);
  std::vector<Entry> out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    Entry e;
    e.name = name;
    e.unit = slot.unit;
    e.help = slot.help;
    e.kind = slot.kind;
    e.counter = slot.counter.get();
    e.gauge = slot.gauge.get();
    e.histogram = slot.histogram.get();
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace bft::obs
