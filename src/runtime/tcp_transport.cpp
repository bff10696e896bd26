#include "runtime/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace bft::runtime {

namespace {

/// "host:port" -> metric-name-safe suffix (lowercase [a-z0-9_] only), e.g.
/// "127.0.0.1:9001" -> "127_0_0_1_9001".
std::string metric_suffix(const std::string& host, std::uint16_t port) {
  std::string out;
  out.reserve(host.size() + 6);
  for (char c : host) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out.push_back(c);
    } else if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back('_');
    }
  }
  out.push_back('_');
  out += std::to_string(port);
  return out;
}

constexpr std::uint8_t kMagic[4] = {'B', 'F', 'T', '1'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHandshakeSize = 10;  // magic + version + sender id
constexpr std::size_t kFrameHeaderSize = 12;  // length + from + to

void put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Reads exactly `n` bytes, riding out short reads and EINTR. Returns the
/// byte count read before EOF/error (== n on success).
std::size_t read_exact(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd, buf + got, n - got, 0);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    break;  // EOF or hard error
  }
  return got;
}

/// Writes a frame's header and payload with one sendmsg, so under
/// TCP_NODELAY the frame leaves as one segment and wakes the reader once;
/// rides out short writes and EINTR. The handshake is a header with an empty
/// payload.
bool write_frame(int fd, std::uint8_t* header, std::size_t header_size,
                 ByteView payload) {
  iovec iov[2] = {{header, header_size},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  while (msg.msg_iovlen > 0) {
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    auto sent = static_cast<std::size_t>(rc);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      iovec& rest = *msg.msg_iov;
      rest.iov_base = static_cast<std::uint8_t*>(rest.iov_base) + sent;
      rest.iov_len -= sent;
    }
  }
  return true;
}

bool resolve_ipv4(const std::string& host, std::uint16_t port,
                  sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &results) != 0) return false;
  bool found = false;
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    if (ai->ai_family == AF_INET) {
      out.sin_addr = reinterpret_cast<sockaddr_in*>(ai->ai_addr)->sin_addr;
      found = true;
      break;
    }
  }
  ::freeaddrinfo(results);
  return found;
}

void enable_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::Instruments::Instruments(obs::MetricsRegistry& reg)
    : bytes_in(reg.counter("transport.bytes_in", "frame bytes received")),
      bytes_out(reg.counter("transport.bytes_out", "frame bytes written")),
      frames_in(reg.counter("transport.frames_in", "frames received")),
      frames_out(reg.counter("transport.frames_out", "frames written")),
      reconnects(reg.counter("transport.reconnects",
                             "successful redials after a lost connection")),
      frame_errors(reg.counter("transport.frame_errors",
                               "malformed handshakes/frames/spoofed senders")),
      send_dropped(reg.counter("transport.send_dropped",
                               "frames shed by full per-peer send queues")),
      send_queue_depth(
          reg.gauge("transport.send_queue_depth",
                    "depth of the most recently used send queue")) {}

TcpTransport::TcpTransport(Topology topology, std::vector<ProcessId> local_ids,
                           TcpTransportOptions options)
    : topology_(std::move(topology)),
      local_ids_(std::move(local_ids)),
      options_(options),
      metrics_(options_.metrics),
      m_(*metrics_) {
  if (local_ids_.empty()) {
    throw std::invalid_argument("TcpTransport: no local ids");
  }
  const TopologyEntry& self = topology_.at(local_ids_.front());
  listen_host_ = self.host;
  listen_port_ = self.port;
  handshake_id_ = *std::min_element(local_ids_.begin(), local_ids_.end());
  const std::string local_address = self.address();
  for (ProcessId id : local_ids_) {
    if (topology_.at(id).address() != local_address) {
      throw std::invalid_argument(
          "TcpTransport: local ids span multiple listen addresses");
    }
  }
  // One writer link per distinct remote listen address; ids sharing an
  // address share the connection.
  for (const TopologyEntry& entry : topology_.entries()) {
    const std::string address = entry.address();
    if (address == local_address) continue;
    auto it = links_.find(address);
    if (it == links_.end()) {
      // The registry has no label support, so the peer address is composed
      // into the drop counter's name (prefix "transport.send_dropped_to_",
      // documented in OBSERVABILITY.md).
      obs::Counter& dropped = metrics_->counter(
          "transport.send_dropped_to_" + metric_suffix(entry.host, entry.port),
          "frames shed by the send queue to " + address);
      auto link =
          std::make_unique<PeerLink>(options_.send_queue_capacity, dropped);
      link->host = entry.host;
      link->port = entry.port;
      it = links_.emplace(address, std::move(link)).first;
    }
    link_of_id_[entry.id] = it->second.get();
  }
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start(DeliverFn deliver) {
  if (started_.exchange(true)) return;
  deliver_ = std::move(deliver);
  running_.store(true);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("TcpTransport: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!resolve_ipv4(listen_host_, listen_port_, addr)) {
    throw std::runtime_error("TcpTransport: cannot resolve " + listen_host_);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("TcpTransport: bind to " + listen_host_ + ":" +
                             std::to_string(listen_port_) + " failed: " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    throw std::runtime_error("TcpTransport: listen failed");
  }
  if (listen_port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      listen_port_ = ntohs(bound.sin_port);
    }
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  for (auto& [address, link] : links_) {
    (void)address;
    PeerLink* l = link.get();
    l->writer = std::thread([this, l] { writer_loop(*l); });
  }
}

void TcpTransport::stop() {
  if (!started_.load()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (!running_.exchange(false)) return;  // second stop: already done
  }
  stop_cv_.notify_all();

  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  for (auto& [address, link] : links_) {
    (void)address;
    link->queue.close();
    const int fd = link->fd.load();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);  // unblock a stuck write
  }
  for (auto& [address, link] : links_) {
    (void)address;
    if (link->writer.joinable()) link->writer.join();
  }

  std::vector<std::unique_ptr<InboundConn>> inbound;
  {
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    inbound.swap(inbound_);
  }
  for (auto& conn : inbound) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);  // unblock the read
  }
  for (auto& conn : inbound) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

bool TcpTransport::send(ProcessId from, ProcessId to, Payload frame) {
  if (!running_.load(std::memory_order_relaxed)) return false;
  if (frame.size() > options_.max_frame_bytes) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    m_.send_dropped.add();
    return false;
  }
  const auto it = link_of_id_.find(to);
  if (it == link_of_id_.end()) return false;  // not in the topology: drop
  PeerLink& link = *it->second;
  if (!link.queue.try_push(OutFrame{from, to, std::move(frame)})) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    m_.send_dropped.add();
    link.dropped.add();
    const std::uint64_t epoch = link.epoch.load(std::memory_order_relaxed);
    if (link.drop_logged_epoch.exchange(epoch, std::memory_order_relaxed) !=
        epoch) {
      BFT_LOG(warn) << "tcp transport " << listen_host_ << ":" << listen_port_
                    << ": send queue to " << link.host << ":" << link.port
                    << " full, shedding frames (one log per connection epoch; "
                       "see transport.send_dropped_to_* counters)";
    }
    return false;
  }
  m_.send_queue_depth.set(static_cast<std::int64_t>(link.queue.size()));
  return true;
}

bool TcpTransport::backoff_wait(Duration d) {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait_for(lock, std::chrono::nanoseconds(d),
                    [this] { return !running_.load(); });
  return running_.load();
}

int TcpTransport::dial(PeerLink& link) {
  Duration backoff = options_.reconnect_backoff_min;
  bool first_attempt = true;
  while (running_.load()) {
    if (!first_attempt && !backoff_wait(backoff)) return -1;
    backoff = std::min(backoff * 2, options_.reconnect_backoff_max);
    first_attempt = false;

    sockaddr_in addr{};
    if (!resolve_ipv4(link.host, link.port, addr)) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    // Non-blocking connect polled in slices so stop() stays prompt even
    // while a dead peer leaves SYNs unanswered.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      ::close(fd);
      continue;
    }
    bool connected = (rc == 0);
    for (int slice = 0; !connected && slice < 10 && running_.load(); ++slice) {
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 100) > 0 && (pfd.revents & POLLOUT) != 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        connected = (err == 0);
        break;
      }
    }
    if (!connected) {
      ::close(fd);
      continue;
    }
    ::fcntl(fd, F_SETFL, flags);  // back to blocking for the write path
    enable_nodelay(fd);
    timeval snd_timeout{5, 0};  // bound stuck writes to a wedged peer
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd_timeout, sizeof(snd_timeout));

    std::uint8_t handshake[kHandshakeSize];
    std::memcpy(handshake, kMagic, sizeof(kMagic));
    put_u16(handshake + 4, kVersion);
    put_u32(handshake + 6, handshake_id_);
    if (!write_frame(fd, handshake, sizeof(handshake), {})) {
      ::close(fd);
      continue;
    }
    if (link.ever_connected.exchange(true)) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      m_.reconnects.add();
    }
    link.epoch.fetch_add(1, std::memory_order_relaxed);
    link.fd.store(fd);
    return fd;
  }
  return -1;
}

void TcpTransport::writer_loop(PeerLink& link) {
  while (auto item = link.queue.pop()) {
    OutFrame frame = std::move(*item);
    m_.send_queue_depth.set(static_cast<std::int64_t>(link.queue.size()));
    while (running_.load()) {
      int fd = link.fd.load();
      if (fd < 0) {
        fd = dial(link);
        if (fd < 0) break;  // stopping
      }
      std::uint8_t header[kFrameHeaderSize];
      put_u32(header, static_cast<std::uint32_t>(8 + frame.payload.size()));
      put_u32(header + 4, frame.from);
      put_u32(header + 8, frame.to);
      if (write_frame(fd, header, sizeof(header), frame.payload.view())) {
        frames_out_.fetch_add(1, std::memory_order_relaxed);
        m_.frames_out.add();
        m_.bytes_out.add(sizeof(header) + frame.payload.size());
        break;  // frame delivered to the kernel; next frame
      }
      // Broken pipe: drop the connection and retry this frame on a fresh one.
      link.fd.store(-1);
      ::close(fd);
    }
  }
  const int fd = link.fd.exchange(-1);
  if (fd >= 0) ::close(fd);
}

void TcpTransport::accept_loop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    enable_nodelay(fd);
    auto conn = std::make_unique<InboundConn>();
    conn->fd = fd;
    conn->reader = std::thread([this, fd] { reader_loop(fd); });
    std::lock_guard<std::mutex> lock(inbound_mutex_);
    inbound_.push_back(std::move(conn));
  }
}

void TcpTransport::note_frame_error() {
  frame_errors_.fetch_add(1, std::memory_order_relaxed);
  m_.frame_errors.add();
}

void TcpTransport::reader_loop(int fd) {
  // Handshake pins this connection to one peer listen address; every frame's
  // claimed sender must be hosted there (anti-spoofing at endpoint
  // granularity — per-message signatures handle the rest above us).
  std::uint8_t handshake[kHandshakeSize];
  if (read_exact(fd, handshake, sizeof(handshake)) != sizeof(handshake) ||
      std::memcmp(handshake, kMagic, sizeof(kMagic)) != 0 ||
      get_u16(handshake + 4) != kVersion) {
    note_frame_error();
    return;  // fd closed by stop() via the inbound list
  }
  const TopologyEntry* peer = topology_.find(get_u32(handshake + 6));
  if (peer == nullptr) {
    note_frame_error();
    return;
  }
  const std::vector<ProcessId> peer_ids = topology_.ids_at(peer->address());

  while (running_.load()) {
    std::uint8_t header[kFrameHeaderSize];
    const std::size_t got = read_exact(fd, header, sizeof(header));
    if (got == 0) return;  // clean EOF between frames
    if (got != sizeof(header)) {
      note_frame_error();  // truncated mid-header
      return;
    }
    const std::uint32_t length = get_u32(header);
    if (length < 8 || length - 8 > options_.max_frame_bytes) {
      note_frame_error();
      return;  // framing is gone; drop the connection
    }
    const ProcessId from = get_u32(header + 4);
    const ProcessId to = get_u32(header + 8);
    Bytes payload(length - 8);
    if (!payload.empty() &&
        read_exact(fd, payload.data(), payload.size()) != payload.size()) {
      note_frame_error();  // truncated mid-payload
      return;
    }
    if (std::find(peer_ids.begin(), peer_ids.end(), from) == peer_ids.end()) {
      note_frame_error();  // spoofed sender id
      return;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    m_.frames_in.add();
    m_.bytes_in.add(sizeof(header) + payload.size());
    deliver_(from, to, Payload(std::move(payload)));
  }
}

}  // namespace bft::runtime
