// A replica's pool of admitted, not yet executed client requests (§5:
// BFT-SMaRt pools requests and the leader batches them).
//
// One container holds each request together with its arrival position, so
// executing a request removes it from the (client, seq) index and from the
// arrival order at once; nothing is left behind on replicas that never
// propose.
#pragma once

#include <cstddef>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "smr/wire.hpp"

namespace bft::smr {

class RequestPool {
 public:
  /// Admits `request`; false (and no change) when its (client, seq) is
  /// already pooled.
  bool add(const Request& request);
  /// Drops the entry for (client, seq), if pooled.
  void erase(std::uint32_t client, std::uint64_t seq);
  /// Drops every entry whose request satisfies `pred`.
  template <typename Pred>
  void erase_if(Pred pred) {
    for (auto it = arrivals_.begin(); it != arrivals_.end();) {
      if (pred(it->request)) {
        index_.erase({it->request.client, it->request.seq});
        if (!it->inflight) --proposable_;
        it = arrivals_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Up to `max` of the oldest requests not in flight, now marked in flight
  /// so later calls skip them (the leader's next proposal).
  std::vector<Request> take_batch(std::size_t max);
  /// Makes every request proposable again: the proposals that carried them
  /// may be lost (crash, regency change).
  void clear_inflight();

  /// Up to `max` of the oldest requests, in flight or not.
  std::vector<Request> oldest(std::size_t max) const;
  /// Up to `max` requests in (client, seq) order.
  std::vector<Request> lowest_keys(std::size_t max) const;

  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }
  /// Requests not in flight: what the next take_batch can return (O(1)).
  std::size_t proposable() const { return proposable_; }

 private:
  struct Entry {
    Request request;
    bool inflight = false;  // carried by an undecided proposal of ours
  };
  using Key = std::pair<std::uint32_t, std::uint64_t>;  // client, seq

  std::list<Entry> arrivals_;  // arrival order; owns the entries
  std::map<Key, std::list<Entry>::iterator> index_;
  std::size_t proposable_ = 0;  // entries with inflight == false
};

}  // namespace bft::smr
