// TCP transport: carries frames between OS processes over real sockets.
//
// Topology-driven: every process id maps to a host:port (topology.hpp); one
// TcpTransport instance serves all ids co-hosted at its listen address.
//
// Connection model — two simplex pipes per peer pair. A transport dials a
// peer's listen address only to SEND, and uses accepted connections only to
// RECEIVE. Both directions dial independently, which removes all connection
// tie-breaking/dedup logic and makes reconnection symmetric: the sending
// side just redials with capped exponential backoff when the pipe breaks.
//
// Wire format. A dialed connection opens with one handshake:
//
//   magic "BFT1" (4 bytes) | version u16 | sender id u32
//
// where sender id is the dialer's lowest hosted id; the acceptor resolves it
// through the topology and pins the connection to that peer address. Every
// subsequent frame is length-prefixed:
//
//   length u32 (= 8 + payload size) | from u32 | to u32 | payload
//
// A frame whose `from` id is not hosted at the pinned peer address is
// rejected (spoofed sender), as is any malformed length/handshake — the
// connection is closed and transport.frame_errors counts it. Short reads and
// partial frames are reassembled; the protocol layer above treats whatever
// decodes badly as Byzantine input, so the transport only enforces framing.
//
// Backpressure: each peer has a bounded send queue drained by a writer
// thread. When the queue is full, send() drops the frame and counts it —
// Env::send is best-effort by contract, and shedding beats blocking an event
// loop on a dead peer. Drops count both globally (transport.send_dropped)
// and per peer (transport.send_dropped_to_<host>_<port>), and emit one warn
// log per connection epoch — the first drop after each (re)dial — rather
// than one per frame, so a dead peer cannot flood the log. Queue depth,
// bytes/frames in/out, reconnects, drops and frame errors register in the
// obs registry (see OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/topology.hpp"
#include "runtime/transport.hpp"
#include "util/queue.hpp"

namespace bft::runtime {

struct TcpTransportOptions {
  /// Bounded per-peer send queue (frames). 0 = unbounded (tests only).
  std::size_t send_queue_capacity = 1024;
  /// Frames larger than this are rejected on both sides.
  std::uint32_t max_frame_bytes = 64u << 20;
  /// Reconnect backoff: doubles from min to max per failed dial.
  Duration reconnect_backoff_min = msec(50);
  Duration reconnect_backoff_max = sec(2);
  /// Registry to export (borrowed; must outlive the transport). The
  /// transport always records its transport.* instruments; when null it
  /// records into a registry of its own.
  obs::MetricsRegistry* metrics = nullptr;
};

class TcpTransport final : public Transport {
 public:
  /// `local_ids` must all resolve to the same host:port in `topology`; that
  /// address becomes the listen endpoint.
  TcpTransport(Topology topology, std::vector<ProcessId> local_ids,
               TcpTransportOptions options = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void start(DeliverFn deliver) override;
  void stop() override;
  bool send(ProcessId from, ProcessId to, Payload frame) override;

  // --- introspection (tests) ---
  std::uint64_t reconnects() const { return reconnects_.load(); }
  std::uint64_t frame_errors() const { return frame_errors_.load(); }
  std::uint64_t frames_dropped() const { return frames_dropped_.load(); }
  std::uint64_t frames_in() const { return frames_in_.load(); }
  std::uint64_t frames_out() const { return frames_out_.load(); }

 private:
  struct OutFrame {
    ProcessId from = 0;
    ProcessId to = 0;
    Payload payload;
  };

  /// Writer-side state for one remote listen address.
  struct PeerLink {
    std::string host;
    std::uint16_t port = 0;
    BlockingQueue<OutFrame> queue;
    std::thread writer;
    std::atomic<int> fd{-1};
    std::atomic<bool> ever_connected{false};  // redials after this count as reconnects
    /// Connection epoch: bumps on every successful dial. Queue-full drops
    /// warn once per epoch (drop_logged_epoch latches the epoch that logged),
    /// so a dead peer produces one line per reconnect attempt cycle, not one
    /// per shed frame.
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> drop_logged_epoch{~0ull};
    /// Per-peer drop counter ("transport.send_dropped_to_<host>_<port>").
    obs::Counter& dropped;

    PeerLink(std::size_t capacity, obs::Counter& dropped_counter)
        : queue(capacity), dropped(dropped_counter) {}
  };

  /// Reader-side state for one accepted connection.
  struct InboundConn {
    int fd = -1;
    std::thread reader;
  };

  void accept_loop();
  void writer_loop(PeerLink& link);
  void reader_loop(int fd);
  /// Dials `link` (with backoff) until connected or stopped; sends the
  /// handshake on success. Returns the connected fd or -1 when stopping.
  int dial(PeerLink& link);
  /// Interruptible sleep; returns false when the transport is stopping.
  bool backoff_wait(Duration d);
  void note_frame_error();

  Topology topology_;
  std::vector<ProcessId> local_ids_;
  TcpTransportOptions options_;
  std::string listen_host_;
  std::uint16_t listen_port_ = 0;
  ProcessId handshake_id_ = 0;  // lowest hosted id, announced when dialing

  DeliverFn deliver_;
  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};

  int listen_fd_ = -1;
  std::thread accept_thread_;

  // Remote address ("host:port") -> writer link. Created eagerly at start
  // for every distinct non-local address in the topology.
  std::map<std::string, std::unique_ptr<PeerLink>> links_;
  std::map<ProcessId, PeerLink*> link_of_id_;

  std::mutex inbound_mutex_;
  std::vector<std::unique_ptr<InboundConn>> inbound_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;

  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};

  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Counter& frames_in;
    obs::Counter& frames_out;
    obs::Counter& reconnects;
    obs::Counter& frame_errors;
    obs::Counter& send_dropped;
    obs::Gauge& send_queue_depth;
  };
  obs::RegistryOrOwned metrics_;
  Instruments m_;
};

}  // namespace bft::runtime
