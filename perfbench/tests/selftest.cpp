// Tests of the benchmark's own checks: a dropped envelope, a duplicated
// envelope or a broken chain each fail the run, and listen-port selection
// retries past a port that is already taken.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "checks.hpp"
#include "harness.hpp"
#include "ledger/block.hpp"
#include "runtime/tcp_transport.hpp"

namespace perfbench {
namespace {

using bft::ledger::Block;

struct Chain {
  explicit Chain(const EnvelopeFactory& factory) : factory(factory) {}

  Block next(std::vector<std::uint64_t> indices) {
    std::vector<bft::Bytes> envelopes;
    for (std::uint64_t i : indices) envelopes.push_back(factory.make(kTimedTag, i));
    Block block = bft::ledger::make_block(number++, previous, std::move(envelopes));
    previous = block.header.digest();
    return block;
  }

  const EnvelopeFactory& factory;
  std::uint64_t number = 1;
  bft::crypto::Hash256 previous = bft::ledger::genesis_hash("channel-0");
};

TEST(DeliveryLedgerTest, EveryEnvelopeOnceInOneChainPasses) {
  const EnvelopeFactory factory(7, 40);
  DeliveryLedger ledger("channel-0", factory, 4);
  Chain chain(factory);
  ledger.on_block(chain.next({0, 1}), 10);
  ledger.on_block(chain.next({2, 3}), 20);
  std::uint64_t failed = 99;
  EXPECT_TRUE(ledger.finish(failed).empty());
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(ledger.delivered_at(3), 20);
  EXPECT_EQ(ledger.envelopes_between(0, 15), 2u);
}

TEST(DeliveryLedgerTest, DroppedEnvelopeFailsTheRun) {
  const EnvelopeFactory factory(7, 40);
  DeliveryLedger ledger("channel-0", factory, 3);
  Chain chain(factory);
  ledger.on_block(chain.next({0, 2}), 10);
  std::uint64_t failed = 0;
  EXPECT_FALSE(ledger.finish(failed).empty());
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(ledger.delivered_at(1), -1);
}

TEST(DeliveryLedgerTest, ClosedTimedRangeExpectsOnlyWhatWasSent) {
  const EnvelopeFactory factory(7, 40);
  DeliveryLedger ledger("channel-0", factory, 4);
  ledger.close_timed(2);
  Chain chain(factory);
  ledger.on_block(chain.next({0, 1}), 10);
  std::uint64_t failed = 99;
  EXPECT_TRUE(ledger.finish(failed).empty());
  EXPECT_EQ(failed, 0u);
  ledger.on_block(chain.next({3}), 20);
  EXPECT_FALSE(ledger.finish(failed).empty());
}

TEST(DeliveryLedgerTest, DuplicatedEnvelopeFailsTheRun) {
  const EnvelopeFactory factory(7, 200);
  DeliveryLedger ledger("channel-0", factory, 2);
  Chain chain(factory);
  ledger.on_block(chain.next({0, 1}), 10);
  ledger.on_block(chain.next({1}), 20);
  std::uint64_t failed = 0;
  const auto violations = ledger.finish(failed);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("twice"), std::string::npos);
  EXPECT_EQ(failed, 0u);
}

TEST(DeliveryLedgerTest, BrokenChainFailsTheRun) {
  const EnvelopeFactory factory(7, 40);
  DeliveryLedger ledger("channel-0", factory, 2);
  Chain chain(factory);
  ledger.on_block(chain.next({0}), 10);
  Block forged = chain.next({1});
  forged.header.previous_hash[0] ^= 1;
  ledger.on_block(forged, 20);
  std::uint64_t failed = 0;
  const auto violations = ledger.finish(failed);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("chain"), std::string::npos);
}

TEST(DeliveryLedgerTest, AlteredEnvelopeFailsTheRun) {
  const EnvelopeFactory factory(7, 40);
  DeliveryLedger ledger("channel-0", factory, 1);
  bft::Bytes envelope = factory.make(kTimedTag, 0);
  envelope.back() ^= 1;
  ledger.on_block(bft::ledger::make_block(1, bft::ledger::genesis_hash("channel-0"),
                                          {envelope}),
                  10);
  std::uint64_t failed = 0;
  EXPECT_FALSE(ledger.finish(failed).empty());
}

TEST(EnvelopeFactoryTest, SameSeedSameBytesOtherSeedOtherBytes) {
  const EnvelopeFactory a(1, 4096);
  const EnvelopeFactory b(1, 4096);
  const EnvelopeFactory c(2, 4096);
  EXPECT_EQ(a.make(kTimedTag, 5), b.make(kTimedTag, 5));
  EXPECT_NE(a.make(kTimedTag, 5), c.make(kTimedTag, 5));
  EXPECT_NE(a.make(kTimedTag, 5), a.make(kWarmupTag, 5));
}

TEST(PortPickerTest, BlocksStayOutsideTheEphemeralRange) {
  PortPicker picker(42, 32768, 60999);
  for (int i = 0; i < 1000; ++i) {
    for (std::uint16_t port : picker.next_block(5)) {
      EXPECT_TRUE(port < 32768 || port > 60999) << port;
      EXPECT_GE(port, 10000);
    }
  }
}

// Binds `port` on 127.0.0.1 and keeps it listening while alive.
class PortHog {
 public:
  explicit PortHog(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bound_ = ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
             ::listen(fd_, 1) == 0;
  }
  ~PortHog() { ::close(fd_); }
  PortHog(const PortHog&) = delete;
  PortHog& operator=(const PortHog&) = delete;
  bool bound() const { return bound_; }

 private:
  int fd_;
  bool bound_ = false;
};

TEST(PortRetryTest, RetriesPastATakenPort) {
  // Same entropy -> same first block: occupy its first port, then start a
  // real TcpTransport through with_port_retry.
  const std::uint64_t entropy = 12345;
  const std::uint16_t taken = PortPicker(entropy, 32768, 60999).next_block(2)[0];
  PortHog hog(taken);
  ASSERT_TRUE(hog.bound());

  PortPicker picker(entropy, 32768, 60999);
  std::vector<std::uint16_t> used;
  std::unique_ptr<bft::runtime::TcpTransport> transport;
  const int retries = with_port_retry(
      picker, 2, 8, [&](const std::vector<std::uint16_t>& ports) {
        used = ports;
        transport.reset();
        transport = std::make_unique<bft::runtime::TcpTransport>(
            bft::runtime::Topology({{"node", 0, "127.0.0.1", ports[0]},
                                    {"node", 1, "127.0.0.1", ports[1]}}),
            std::vector<bft::runtime::ProcessId>{0});
        transport->start([](bft::runtime::ProcessId, bft::runtime::ProcessId,
                            bft::Payload) {});
      });
  EXPECT_EQ(retries, 1);
  EXPECT_NE(used[0], taken);
  transport->stop();
}

TEST(PortRetryTest, OtherErrorsAreNotRetried) {
  PortPicker picker(1, 32768, 60999);
  int calls = 0;
  EXPECT_THROW(with_port_retry(picker, 1, 8,
                               [&](const std::vector<std::uint16_t>&) {
                                 ++calls;
                                 throw std::runtime_error("warm-up stalled");
                               }),
               std::runtime_error);
  EXPECT_EQ(calls, 1);
}

TEST(QuantileTest, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(quantile(v, 0.5), 3);
  EXPECT_EQ(quantile(v, 0.99), 5);
  std::vector<double> with_inf = {1, 2, std::numeric_limits<double>::infinity()};
  EXPECT_TRUE(std::isinf(quantile(with_inf, 0.99)));
}

}  // namespace
}  // namespace perfbench
