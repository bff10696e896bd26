#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::size_t kPoolBytes = 1u << 16;

/// True when `error` is TcpTransport's listen-socket bind failure.
bool is_bind_failure(const std::exception& error) {
  const std::string what = error.what();
  return what.find("bind to") != std::string::npos;
}

}  // namespace

EnvelopeFactory::EnvelopeFactory(std::uint64_t seed, std::size_t envelope_bytes)
    : envelope_bytes_(std::max(envelope_bytes, kEnvelopeHeader)),
      pool_(kPoolBytes + envelope_bytes_) {
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    const std::uint64_t word = splitmix(state);
    std::memcpy(pool_.data() + i, &word, std::min<std::size_t>(8, pool_.size() - i));
  }
}

bft::Bytes EnvelopeFactory::make(std::uint8_t tag, std::uint64_t index) const {
  bft::Bytes out(envelope_bytes_);
  out[0] = tag;
  std::memcpy(out.data() + 1, &index, 8);
  const std::size_t offset = (index * 2654435761ull + tag) % kPoolBytes;
  std::memcpy(out.data() + kEnvelopeHeader, pool_.data() + offset,
              envelope_bytes_ - kEnvelopeHeader);
  return out;
}

bool EnvelopeFactory::matches(bft::ByteView envelope, std::uint8_t& tag,
                              std::uint64_t& index) const {
  if (envelope.size() != envelope_bytes_) return false;
  tag = envelope[0];
  std::memcpy(&index, envelope.data() + 1, 8);
  const std::size_t offset = (index * 2654435761ull + tag) % kPoolBytes;
  return std::memcmp(envelope.data() + kEnvelopeHeader, pool_.data() + offset,
                     envelope_bytes_ - kEnvelopeHeader) == 0;
}

DeliveryLedger::DeliveryLedger(const std::string& channel,
                               const EnvelopeFactory& factory,
                               std::uint64_t timed_count)
    : factory_(factory), store_(channel), delivered_at_(timed_count, -1) {}

void DeliveryLedger::close_timed(std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count < delivered_at_.size()) delivered_at_.resize(count);
}

void DeliveryLedger::violation(std::string what) {
  if (violations_.size() < 16) violations_.push_back(std::move(what));
}

void DeliveryLedger::on_block(const bft::ledger::Block& block,
                              std::int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto appended = store_.append(block);
  if (!appended.is_ok()) {
    violation("block " + std::to_string(block.header.number) +
              " broke the chain: " + appended.error());
  }
  block_times_.push_back(now_ns);
  block_sizes_.push_back(static_cast<std::uint32_t>(block.envelopes.size()));
  for (const bft::Bytes& envelope : block.envelopes) {
    std::uint8_t tag = 0;
    std::uint64_t index = 0;
    if (!factory_.matches(bft::ByteView(envelope.data(), envelope.size()), tag,
                          index)) {
      violation("block " + std::to_string(block.header.number) +
                " carries an envelope the generator never sent");
      continue;
    }
    if (tag == kWarmupTag) {
      ++warmup_delivered_;
      continue;
    }
    if (tag != kTimedTag || index >= delivered_at_.size()) {
      violation("envelope index " + std::to_string(index) + " out of range");
      continue;
    }
    if (delivered_at_[index] >= 0) {
      violation("envelope " + std::to_string(index) + " delivered twice");
      continue;
    }
    delivered_at_[index] = now_ns;
    ++timed_delivered_;
  }
}

std::uint64_t DeliveryLedger::warmup_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warmup_delivered_;
}

std::uint64_t DeliveryLedger::timed_delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timed_delivered_;
}

std::int64_t DeliveryLedger::delivered_at(std::uint64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_at_.at(index);
}

std::vector<std::int64_t> DeliveryLedger::block_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  return block_times_;
}

std::uint64_t DeliveryLedger::envelopes_between(std::int64_t from,
                                                std::int64_t to) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < block_times_.size(); ++i) {
    if (block_times_[i] >= from && block_times_[i] < to) total += block_sizes_[i];
  }
  return total;
}

std::vector<std::string> DeliveryLedger::finish(std::uint64_t& failed) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out = violations_;
  const auto audit = store_.verify();
  if (!audit.is_ok()) out.push_back("chain audit failed: " + audit.error());
  failed = static_cast<std::uint64_t>(
      std::count(delivered_at_.begin(), delivered_at_.end(), -1));
  if (failed > 0) {
    out.push_back(std::to_string(failed) + " envelopes never delivered");
  }
  return out;
}

PortPicker::PortPicker(std::uint64_t entropy) : PortPicker(entropy, 32768, 60999) {
  std::ifstream range("/proc/sys/net/ipv4/ip_local_port_range");
  unsigned lo = 0;
  unsigned hi = 0;
  if (range >> lo >> hi && lo > 0 && lo <= hi && hi <= 65535) {
    lo_ = static_cast<std::uint16_t>(lo);
    hi_ = static_cast<std::uint16_t>(hi);
  }
}

PortPicker::PortPicker(std::uint64_t entropy, std::uint16_t ephemeral_lo,
                       std::uint16_t ephemeral_hi)
    : state_(entropy), lo_(ephemeral_lo), hi_(ephemeral_hi) {}

std::vector<std::uint16_t> PortPicker::next_block(std::size_t count) {
  // Two candidate regions: [10000, lo) and (hi, 65535]. A block never
  // straddles the ephemeral range.
  struct Region {
    std::uint32_t first;
    std::uint32_t last;  // inclusive
  };
  std::vector<Region> regions;
  if (lo_ > 10000 + count) regions.push_back({10000, lo_ - 1u});
  if (hi_ + count < 65535u) regions.push_back({hi_ + 1u, 65535u});
  if (regions.empty()) {
    throw std::runtime_error("no listen ports outside the ephemeral range");
  }
  std::uint64_t slots = 0;
  for (const Region& r : regions) slots += r.last - r.first + 1 - count;
  std::uint64_t pick = splitmix(state_) % slots;
  for (const Region& r : regions) {
    const std::uint64_t span = r.last - r.first + 1 - count;
    if (pick < span) {
      std::vector<std::uint16_t> ports(count);
      for (std::size_t i = 0; i < count; ++i) {
        ports[i] = static_cast<std::uint16_t>(r.first + pick + i);
      }
      return ports;
    }
    pick -= span;
  }
  throw std::logic_error("PortPicker: unreachable");
}

int with_port_retry(
    PortPicker& picker, std::size_t count, int max_attempts,
    const std::function<void(const std::vector<std::uint16_t>&)>& attempt) {
  for (int retries = 0;; ++retries) {
    try {
      attempt(picker.next_block(count));
      return retries;
    } catch (const std::runtime_error& error) {
      if (!is_bind_failure(error) || retries + 1 >= max_attempts) throw;
    }
  }
}

}  // namespace perfbench
