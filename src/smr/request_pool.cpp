#include "smr/request_pool.hpp"

#include <algorithm>

namespace bft::smr {

bool RequestPool::add(const Request& request) {
  const Key key{request.client, request.seq};
  if (index_.count(key) > 0) return false;
  index_.emplace(key, arrivals_.insert(arrivals_.end(), Entry{request}));
  ++proposable_;
  return true;
}

void RequestPool::erase(std::uint32_t client, std::uint64_t seq) {
  const auto it = index_.find({client, seq});
  if (it == index_.end()) return;
  if (!it->second->inflight) --proposable_;
  arrivals_.erase(it->second);
  index_.erase(it);
}

std::vector<Request> RequestPool::take_batch(std::size_t max) {
  const std::size_t want = std::min(max, proposable_);
  std::vector<Request> batch;
  batch.reserve(want);
  for (Entry& entry : arrivals_) {
    if (batch.size() >= want) break;
    if (entry.inflight) continue;
    entry.inflight = true;
    batch.push_back(entry.request);
  }
  proposable_ -= batch.size();
  return batch;
}

void RequestPool::clear_inflight() {
  for (Entry& entry : arrivals_) entry.inflight = false;
  proposable_ = arrivals_.size();
}

std::vector<Request> RequestPool::oldest(std::size_t max) const {
  std::vector<Request> batch;
  for (const Entry& entry : arrivals_) {
    if (batch.size() >= max) break;
    batch.push_back(entry.request);
  }
  return batch;
}

std::vector<Request> RequestPool::lowest_keys(std::size_t max) const {
  std::vector<Request> batch;
  for (const auto& [key, entry] : index_) {
    (void)key;
    if (batch.size() >= max) break;
    batch.push_back(entry->request);
  }
  return batch;
}

}  // namespace bft::smr
