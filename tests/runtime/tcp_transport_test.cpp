// TCP transport over loopback: framing (including byte-dribbled short
// reads), handshake validation, sender pinning, backpressure shedding and
// reconnect after a peer restart.
#include "runtime/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace bft::runtime {
namespace {

/// Grabs an ephemeral port from the kernel. Racy in principle (the port is
/// released before the transport rebinds it), harmless on a loopback test
/// host.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

int dial_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Valid handshake announcing `sender`, followed by one frame.
std::vector<std::uint8_t> wire_bytes(ProcessId sender, ProcessId from,
                                     ProcessId to, const std::string& payload) {
  std::vector<std::uint8_t> out = {'B', 'F', 'T', '1', 1, 0};
  put_u32(out, sender);
  put_u32(out, static_cast<std::uint32_t>(8 + payload.size()));
  put_u32(out, from);
  put_u32(out, to);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// Collects delivered frames thread-safely.
struct Sink {
  struct Frame {
    ProcessId from, to;
    Bytes payload;
  };

  Transport::DeliverFn fn() {
    return [this](ProcessId from, ProcessId to, Payload frame) {
      std::lock_guard<std::mutex> lock(mu);
      frames.push_back({from, to, frame.to_bytes()});
    };
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return frames.size();
  }
  Frame at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return frames.at(i);
  }
  bool wait_for(std::size_t n, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; waited += 5) {
      if (count() >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return count() >= n;
  }

  std::mutex mu;
  std::vector<Frame> frames;
};

Topology pair_topology(std::uint16_t port_a, std::uint16_t port_b) {
  return Topology::parse("node 0 127.0.0.1:" + std::to_string(port_a) +
                         "\nnode 1 127.0.0.1:" + std::to_string(port_b) + "\n");
}

TEST(TcpTransportTest, LoopbackPairDeliversBothDirections) {
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransport a(topo, {0});
  TcpTransport b(topo, {1});
  Sink sink_a, sink_b;
  a.start(sink_a.fn());
  b.start(sink_b.fn());

  EXPECT_TRUE(a.send(0, 1, Payload(to_bytes("a-to-b"))));
  EXPECT_TRUE(b.send(1, 0, Payload(to_bytes("b-to-a"))));

  ASSERT_TRUE(sink_b.wait_for(1));
  ASSERT_TRUE(sink_a.wait_for(1));
  EXPECT_EQ(sink_b.at(0).from, 0u);
  EXPECT_EQ(sink_b.at(0).to, 1u);
  EXPECT_EQ(to_string(ByteView(sink_b.at(0).payload.data(),
                               sink_b.at(0).payload.size())),
            "a-to-b");
  EXPECT_EQ(to_string(ByteView(sink_a.at(0).payload.data(),
                               sink_a.at(0).payload.size())),
            "b-to-a");
  EXPECT_GE(a.frames_out(), 1u);
  EXPECT_GE(a.frames_in(), 1u);
  a.stop();
  b.stop();
}

TEST(TcpTransportTest, ManyFramesArriveInOrder) {
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransport a(topo, {0});
  TcpTransport b(topo, {1});
  Sink sink_a, sink_b;
  a.start(sink_a.fn());
  b.start(sink_b.fn());
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_TRUE(a.send(0, 1, Payload(to_bytes("seq:" + std::to_string(i)))));
  }
  ASSERT_TRUE(sink_b.wait_for(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const auto frame = sink_b.at(static_cast<std::size_t>(i));
    EXPECT_EQ(to_string(ByteView(frame.payload.data(), frame.payload.size())),
              "seq:" + std::to_string(i));
  }
  a.stop();
  b.stop();
}

TEST(TcpTransportTest, LargeAndEmptyFramesKeepTheirBoundaries) {
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransport a(topo, {0});
  TcpTransport b(topo, {1});
  Sink sink_a, sink_b;
  a.start(sink_a.fn());
  b.start(sink_b.fn());
  // Header and payload leave in one sendmsg; a payload larger than the
  // socket buffer and an empty one must both keep the framing intact.
  const std::vector<std::size_t> sizes = {0, 1, 3u << 20, 0, 5};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    Bytes payload(sizes[i], static_cast<std::uint8_t>(0x30 + i));
    EXPECT_TRUE(a.send(0, 1, Payload(std::move(payload))));
  }
  ASSERT_TRUE(sink_b.wait_for(sizes.size()));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Bytes expected(sizes[i], static_cast<std::uint8_t>(0x30 + i));
    EXPECT_EQ(sink_b.at(i).payload, expected) << "frame " << i;
  }
  EXPECT_EQ(b.frame_errors(), 0u);
  a.stop();
  b.stop();
}

TEST(TcpTransportTest, ShortReadsReassembleFrames) {
  const std::uint16_t port_b = free_port();
  const Topology topo = pair_topology(free_port(), port_b);
  TcpTransport b(topo, {1});
  Sink sink;
  b.start(sink.fn());

  // Dribble the handshake and frame one byte per write: the reader must
  // reassemble across arbitrarily unkind packetization.
  const std::vector<std::uint8_t> wire = wire_bytes(0, 0, 1, "dribbled-frame");
  const int fd = dial_raw(port_b);
  ASSERT_GE(fd, 0);
  for (std::uint8_t byte : wire) {
    ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(sink.wait_for(1));
  EXPECT_EQ(sink.at(0).from, 0u);
  EXPECT_EQ(to_string(ByteView(sink.at(0).payload.data(),
                               sink.at(0).payload.size())),
            "dribbled-frame");
  EXPECT_EQ(b.frame_errors(), 0u);
  ::close(fd);
  b.stop();
}

TEST(TcpTransportTest, BadMagicCountsFrameError) {
  const std::uint16_t port_b = free_port();
  const Topology topo = pair_topology(free_port(), port_b);
  TcpTransport b(topo, {1});
  Sink sink;
  b.start(sink.fn());

  const int fd = dial_raw(port_b);
  ASSERT_GE(fd, 0);
  const char garbage[] = "HTTP/1.1 GET /";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  for (int waited = 0; waited < 5000 && b.frame_errors() == 0; waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(b.frame_errors(), 1u);
  EXPECT_EQ(sink.count(), 0u);
  ::close(fd);
  b.stop();
}

TEST(TcpTransportTest, UnknownHandshakeSenderRejected) {
  const std::uint16_t port_b = free_port();
  const Topology topo = pair_topology(free_port(), port_b);
  TcpTransport b(topo, {1});
  Sink sink;
  b.start(sink.fn());
  const int fd = dial_raw(port_b);
  ASSERT_GE(fd, 0);
  const auto wire = wire_bytes(/*sender=*/77, 0, 1, "x");  // 77 not in topology
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  for (int waited = 0; waited < 5000 && b.frame_errors() == 0; waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(b.frame_errors(), 1u);
  EXPECT_EQ(sink.count(), 0u);
  ::close(fd);
  b.stop();
}

TEST(TcpTransportTest, SpoofedFrameSenderRejected) {
  // Three endpoints; the raw peer handshakes as node 0 but claims frames are
  // from node 2 (hosted at a different address) — endpoint pinning rejects.
  const std::uint16_t port_b = free_port();
  const Topology topo = Topology::parse(
      "node 0 127.0.0.1:" + std::to_string(free_port()) +
      "\nnode 1 127.0.0.1:" + std::to_string(port_b) +
      "\nnode 2 127.0.0.1:" + std::to_string(free_port()) + "\n");
  TcpTransport b(topo, {1});
  Sink sink;
  b.start(sink.fn());
  const int fd = dial_raw(port_b);
  ASSERT_GE(fd, 0);
  const auto wire = wire_bytes(/*sender=*/0, /*from=*/2, 1, "spoof");
  ASSERT_GT(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL), 0);
  for (int waited = 0; waited < 5000 && b.frame_errors() == 0; waited += 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(b.frame_errors(), 1u);
  EXPECT_EQ(sink.count(), 0u);
  ::close(fd);
  b.stop();
}

TEST(TcpTransportTest, FullSendQueueShedsFrames) {
  // Peer address with nothing listening: the writer sits in dial backoff
  // while sends pile into a capacity-2 queue.
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransportOptions options;
  options.send_queue_capacity = 2;
  options.reconnect_backoff_min = msec(200);
  options.reconnect_backoff_max = sec(2);
  TcpTransport a(topo, {0}, options);
  Sink sink;
  a.start(sink.fn());
  std::size_t accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.send(0, 1, Payload(to_bytes("flood")))) ++accepted;
  }
  EXPECT_LT(accepted, 20u);
  EXPECT_GT(a.frames_dropped(), 0u);
  EXPECT_EQ(accepted + a.frames_dropped(), 20u);
  a.stop();
}

TEST(TcpTransportTest, OversizedFrameRejectedAtSend) {
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransportOptions options;
  options.max_frame_bytes = 64;
  TcpTransport a(topo, {0}, options);
  Sink sink;
  a.start(sink.fn());
  EXPECT_FALSE(a.send(0, 1, Payload(Bytes(1024, 0x7f))));
  EXPECT_EQ(a.frames_dropped(), 1u);
  a.stop();
}

TEST(TcpTransportTest, ReconnectsAfterPeerRestart) {
  const std::uint16_t port_a = free_port();
  const std::uint16_t port_b = free_port();
  const Topology topo = pair_topology(port_a, port_b);
  TcpTransportOptions fast;
  fast.reconnect_backoff_min = msec(10);
  fast.reconnect_backoff_max = msec(100);
  TcpTransport a(topo, {0}, fast);
  Sink sink_a;
  a.start(sink_a.fn());

  {
    TcpTransport b(topo, {1});
    Sink sink_b;
    b.start(sink_b.fn());
    ASSERT_TRUE(a.send(0, 1, Payload(to_bytes("before-restart"))));
    ASSERT_TRUE(sink_b.wait_for(1));
    b.stop();
  }

  // Peer gone: this frame rides the dead connection or a redial loop until
  // the restarted peer accepts; a later frame must arrive at the new one.
  a.send(0, 1, Payload(to_bytes("during-outage")));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  TcpTransport b2(topo, {1});
  Sink sink_b2;
  b2.start(sink_b2.fn());
  // A frame written just before the RST arrives can vanish into the dead
  // socket's buffer, so keep sending until the restarted peer hears one.
  for (int i = 0; i < 200 && sink_b2.count() == 0; ++i) {
    a.send(0, 1, Payload(to_bytes("after-restart")));
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_TRUE(sink_b2.wait_for(1, 1000));
  EXPECT_GE(a.reconnects(), 1u);
  a.stop();
  b2.stop();
}

TEST(TcpTransportTest, SendToUnknownIdReturnsFalse) {
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransport a(topo, {0});
  Sink sink;
  a.start(sink.fn());
  EXPECT_FALSE(a.send(0, 999, Payload(to_bytes("void"))));
  a.stop();
}

TEST(TcpTransportTest, LocalIdsMustShareOneAddress) {
  const Topology topo = pair_topology(free_port(), free_port());
  EXPECT_THROW(TcpTransport(topo, {0, 1}), std::invalid_argument);
  EXPECT_THROW(TcpTransport(topo, {}), std::invalid_argument);
}

TEST(TcpTransportTest, MetricsRegisterInSharedRegistry) {
  obs::MetricsRegistry registry;
  const Topology topo = pair_topology(free_port(), free_port());
  TcpTransportOptions options;
  options.metrics = &registry;
  TcpTransport a(topo, {0}, options);
  TcpTransport b(topo, {1});  // unregistered peer keeps names unambiguous
  Sink sink_a, sink_b;
  a.start(sink_a.fn());
  b.start(sink_b.fn());
  ASSERT_TRUE(a.send(0, 1, Payload(to_bytes("counted"))));
  ASSERT_TRUE(sink_b.wait_for(1));
  EXPECT_GE(registry.counter("transport.frames_out").value(), 1u);
  EXPECT_GT(registry.counter("transport.bytes_out").value(), 0u);
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace bft::runtime
