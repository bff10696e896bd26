// Transport micro-benchmark: TcpTransport frame throughput over loopback.
//
// Two transports (one "node", one "frontend") on 127.0.0.1; the sender pumps
// frames of each payload size for a fixed window and the receiver counts
// arrivals. Reported per size: send-side frame rate, delivered frame rate,
// goodput (payload MB/s) and frames shed by the bounded send queue — the
// backpressure behaviour an overloaded ordering node would see. Loopback has
// no propagation delay, so this measures the framing + queue + thread-handoff
// overhead that sits under every real deployment (DESIGN.md §2b).
//
// Every received frame is hash-verified (SHA-256 over the payload, a
// stand-in for signature verification). --workers 0 (default) verifies
// inline on the receiver's read thread — the serial reference. --workers N
// stages the verify through a WorkerPoolRunner: prologue on a worker,
// ordered epilogue counts the delivery — so the workers columns measure
// exactly what moving verification off the receive thread buys (and costs,
// via the reorder handoff) at each payload size.
//
//   bench_transport_loopback [--seconds 1.0] [--sizes 40,200,1024,4096]
//                            [--queue 1024] [--workers 0] [--json-out FILE]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/cli.hpp"
#include "crypto/sha256.hpp"
#include "runtime/runner.hpp"
#include "runtime/tcp_transport.hpp"

using namespace bft;

namespace {

// Grabs an ephemeral port by binding to 0; the tiny close-to-listen race is
// acceptable for a local bench.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? csv.npos : comma - pos);
    if (!item.empty()) sizes.push_back(std::stoul(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const double seconds = flags.get_double("seconds", 1.0);
  const std::size_t queue =
      static_cast<std::size_t>(flags.get_int("queue", 1024));
  const std::vector<std::size_t> sizes =
      parse_sizes(flags.get("sizes", "40,200,1024,4096"));
  const auto workers = static_cast<std::uint32_t>(flags.get_int("workers", 0));
  const std::string json_out = flags.get("json-out", "");
  if (!flags.unused().empty()) {
    std::fprintf(stderr,
                 "usage: bench_transport_loopback [--seconds S] "
                 "[--sizes a,b,...] [--queue N] [--workers W] "
                 "[--json-out FILE]\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  struct Row {
    std::size_t payload_bytes;
    double sent_per_s;
    double delivered_per_s;
    double goodput_mb_s;
    std::uint64_t shed;
  };
  std::vector<Row> rows;

  std::printf(
      "TcpTransport loopback throughput (%.1f s/size, queue %zu, "
      "%u prologue workers)\n\n",
      seconds, queue, workers);
  std::printf("%10s %14s %14s %12s %10s\n", "payload", "sent/s", "delivered/s",
              "goodput", "shed");

  for (const std::size_t size : sizes) {
    const std::uint16_t node_port = free_port();
    const std::uint16_t frontend_port = free_port();
    const runtime::Topology topology = runtime::Topology::parse(
        "node 0 127.0.0.1:" + std::to_string(node_port) +
        "\nfrontend 1 127.0.0.1:" + std::to_string(frontend_port) + "\n");

    runtime::TcpTransportOptions options;
    options.send_queue_capacity = queue;
    runtime::TcpTransport sender(topology, {0}, options);
    runtime::TcpTransport receiver(topology, {1}, options);

    std::atomic<std::uint64_t> delivered{0};
    // workers > 0: stage the hash-verify through the runner — prologue on a
    // worker, ordered epilogue counts the delivery (the same shape
    // RealCluster uses for inbound envelopes).
    std::unique_ptr<runtime::WorkerPoolRunner> runner;
    if (workers > 0) {
      runtime::WorkerPoolRunnerOptions ro;
      ro.workers = workers;
      runner = std::make_unique<runtime::WorkerPoolRunner>(
          ro, [](runtime::Epilogue epilogue) { epilogue(); });
    }
    receiver.start([&delivered, &runner](runtime::ProcessId, runtime::ProcessId,
                                         Payload payload) {
      if (runner == nullptr) {
        // Serial reference: hash-verify inline on the read thread.
        volatile std::uint8_t sink = crypto::sha256(payload.view())[0];
        (void)sink;
        delivered.fetch_add(1);
        return;
      }
      runner->submit([&delivered, payload]() -> runtime::Epilogue {
        volatile std::uint8_t sink = crypto::sha256(payload.view())[0];
        (void)sink;
        return [&delivered] { delivered.fetch_add(1); };
      });
    });
    sender.start([](runtime::ProcessId, runtime::ProcessId, Payload) {});

    // One shared allocation for every send, as a broadcast would use.
    const Payload payload(Bytes(size, 0xa5));
    std::uint64_t accepted = 0;
    std::uint64_t attempted = 0;
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      // Batch between clock reads; sends are non-blocking by contract.
      for (int i = 0; i < 256; ++i) {
        ++attempted;
        if (sender.send(0, 1, payload)) ++accepted;
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    // Let the writer/reader drain what was queued before measuring delivery.
    const std::uint64_t target = accepted;
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (delivered.load() < target &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    sender.stop();
    receiver.stop();

    const double sent_rate = static_cast<double>(attempted) / elapsed;
    const double delivered_rate = static_cast<double>(delivered.load()) / elapsed;
    const double goodput_mbs =
        delivered_rate * static_cast<double>(size) / 1e6;
    std::printf("%9zuB %12.0f/s %12.0f/s %9.1fMB/s %10llu\n", size, sent_rate,
                delivered_rate, goodput_mbs,
                static_cast<unsigned long long>(sender.frames_dropped()));
    rows.push_back(
        {size, sent_rate, delivered_rate, goodput_mbs, sender.frames_dropped()});
  }

  std::printf(
      "\nshed = frames dropped by the bounded per-peer send queue "
      "(transport.send_dropped)\n");

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --json-out");
      return 1;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"bench\": \"transport_loopback\", \"mode\": \"wall\", "
                   "\"payload_bytes\": %zu, \"workers\": %u, "
                   "\"sent_per_s\": %.0f, "
                   "\"delivered_per_s\": %.0f, \"goodput_mb_s\": %.2f, "
                   "\"shed\": %llu}%s\n",
                   r.payload_bytes, workers, r.sent_per_s, r.delivered_per_s,
                   r.goodput_mb_s, static_cast<unsigned long long>(r.shed),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
