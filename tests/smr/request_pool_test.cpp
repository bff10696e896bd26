// RequestPool: dedup by (client, seq), arrival-order batching with in-flight
// marks, and removal of executed requests from every view of the pool.
#include <gtest/gtest.h>

#include "smr/request_pool.hpp"

namespace bft::smr {
namespace {

Request make_request(std::uint32_t client, std::uint64_t seq) {
  Request r;
  r.client = client;
  r.seq = seq;
  r.payload = to_bytes("op-" + std::to_string(client) + "-" +
                       std::to_string(seq));
  return r;
}

using Keys = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

Keys keys(const std::vector<Request>& requests) {
  Keys out;
  for (const Request& r : requests) out.emplace_back(r.client, r.seq);
  return out;
}

TEST(RequestPoolTest, BatchesFollowArrivalOrderAndSkipInflight) {
  RequestPool pool;
  // Arrival order differs from (client, seq) order.
  ASSERT_TRUE(pool.add(make_request(9, 1)));
  ASSERT_TRUE(pool.add(make_request(2, 7)));
  ASSERT_TRUE(pool.add(make_request(5, 3)));
  ASSERT_TRUE(pool.add(make_request(2, 1)));

  EXPECT_EQ(keys(pool.take_batch(2)), (Keys{{9, 1}, {2, 7}}));
  // The first two are in flight now: the next batch starts after them.
  EXPECT_EQ(keys(pool.take_batch(10)), (Keys{{5, 3}, {2, 1}}));
  EXPECT_TRUE(pool.take_batch(10).empty());

  // In-flight requests stay pooled and visible to the other views.
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(keys(pool.oldest(3)), (Keys{{9, 1}, {2, 7}, {5, 3}}));
  EXPECT_EQ(keys(pool.lowest_keys(3)), (Keys{{2, 1}, {2, 7}, {5, 3}}));
}

TEST(RequestPoolTest, ClearingInflightMakesEntriesProposableAgain) {
  RequestPool pool;
  pool.add(make_request(1, 1));
  pool.add(make_request(1, 2));
  pool.add(make_request(1, 3));
  ASSERT_EQ(pool.take_batch(2).size(), 2u);
  pool.add(make_request(1, 4));

  pool.clear_inflight();
  EXPECT_EQ(keys(pool.take_batch(10)), (Keys{{1, 1}, {1, 2}, {1, 3}, {1, 4}}));
}

TEST(RequestPoolTest, DuplicateClientSeqRejected) {
  RequestPool pool;
  ASSERT_TRUE(pool.add(make_request(3, 8)));
  Request again = make_request(3, 8);
  again.payload = to_bytes("different bytes, same key");
  EXPECT_FALSE(pool.add(again));
  EXPECT_EQ(pool.size(), 1u);
  ASSERT_EQ(pool.oldest(10).size(), 1u);
  EXPECT_EQ(pool.oldest(10)[0], make_request(3, 8));

  // Once removed, the key is admissible again.
  pool.erase(3, 8);
  EXPECT_TRUE(pool.add(again));
}

TEST(RequestPoolTest, ExecutedWithoutProposalLeavesNothingBehind) {
  // A follower admits every request but never proposes: each one leaves the
  // pool when it executes. Nothing of it may stay in the arrival order.
  RequestPool pool;
  constexpr std::uint64_t kRequests = 1000;
  for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
    ASSERT_TRUE(pool.add(make_request(static_cast<std::uint32_t>(seq % 7), seq)));
  }
  for (std::uint64_t seq = 1; seq <= kRequests; ++seq) {
    pool.erase(static_cast<std::uint32_t>(seq % 7), seq);
  }
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.oldest(kRequests).empty());
  EXPECT_TRUE(pool.lowest_keys(kRequests).empty());
}

TEST(RequestPoolTest, EraseIfDropsMatchingEntriesOnly) {
  RequestPool pool;
  for (std::uint64_t seq = 1; seq <= 6; ++seq) pool.add(make_request(1, seq));
  pool.erase_if([](const Request& r) { return r.seq % 2 == 0; });
  EXPECT_EQ(keys(pool.oldest(10)), (Keys{{1, 1}, {1, 3}, {1, 5}}));
  EXPECT_EQ(keys(pool.take_batch(10)), (Keys{{1, 1}, {1, 3}, {1, 5}}));
}

TEST(RequestPoolTest, ProposableCountsRequestsNotInFlight) {
  RequestPool pool;
  EXPECT_EQ(pool.proposable(), 0u);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) pool.add(make_request(1, seq));
  EXPECT_FALSE(pool.add(make_request(1, 3)));  // duplicate: no change
  EXPECT_EQ(pool.proposable(), 5u);

  ASSERT_EQ(pool.take_batch(2).size(), 2u);  // seqs 1, 2 in flight
  EXPECT_EQ(pool.proposable(), 3u);
  pool.erase(1, 1);  // in flight: the count stays
  EXPECT_EQ(pool.proposable(), 3u);
  pool.erase(1, 4);  // not in flight
  EXPECT_EQ(pool.proposable(), 2u);
  pool.erase(1, 9);  // not pooled
  EXPECT_EQ(pool.proposable(), 2u);

  pool.add(make_request(2, 1));
  EXPECT_EQ(pool.proposable(), 3u);
  // Drops seq 2 (in flight) and seq 3 (not in flight).
  pool.erase_if([](const Request& r) { return r.client == 1 && r.seq <= 3; });
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.proposable(), 2u);

  ASSERT_EQ(pool.take_batch(10).size(), 2u);
  EXPECT_EQ(pool.proposable(), 0u);
  EXPECT_TRUE(pool.take_batch(10).empty());
  pool.clear_inflight();
  EXPECT_EQ(pool.proposable(), pool.size());
  EXPECT_EQ(pool.take_batch(10).size(), pool.size());
}

}  // namespace
}  // namespace bft::smr
