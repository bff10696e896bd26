// Multi-process deployment runtime: one TcpCluster per OS process.
//
// Composition, not a new runtime: a TcpCluster is a RealCluster (thread-per-
// actor event loops) whose off-host sends route into a TcpTransport, and
// whose inbound frames come back through RealCluster::deliver_local. Protocol
// code (src/smr, src/consensus, src/ordering) is identical across SimCluster,
// RealCluster and TcpCluster — only the Env wiring differs.
//
// Start order matters and is handled here: the transport starts before the
// actor loops so that messages sent from on_start handlers (e.g. a
// frontend's receiver registration) already have a live outbound path; stop
// reverses it so no frame is delivered into a stopping cluster.
#pragma once

#include <vector>

#include "runtime/real_runtime.hpp"
#include "runtime/tcp_transport.hpp"
#include "runtime/topology.hpp"

namespace bft::runtime {

struct TcpClusterOptions {
  /// See RealClusterOptions::inbox_capacity.
  std::size_t inbox_capacity = 65536;
  /// Transport tuning. The `metrics` field inside is ignored; set the
  /// cluster-level one below and both layers share it.
  TcpTransportOptions transport;
  /// Registry to export (borrowed; must outlive the cluster). Both layers
  /// always record; null leaves them recording into registries of their own.
  obs::MetricsRegistry* metrics = nullptr;
};

class TcpCluster {
 public:
  /// Hosts `local_ids` (all mapped to one listen address in `topology`) in
  /// this OS process; every other topology id is reachable over TCP.
  TcpCluster(Topology topology, std::vector<ProcessId> local_ids,
             TcpClusterOptions options = {});
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  /// Registers a locally hosted actor; `id` must be one of the local ids.
  void add_process(ProcessId id, Actor* actor, std::size_t worker_threads = 2);

  void start();
  void stop();

  /// Injects a message from outside any actor; routes locally or over TCP.
  void send_external(ProcessId from, ProcessId to, Payload payload);
  /// Runs `fn` on a local actor's event-loop thread.
  void post(ProcessId to, std::function<void()> fn);
  TimePoint now() const { return local_.now(); }

  RealCluster& local() { return local_; }
  TcpTransport& transport() { return transport_; }

 private:
  std::vector<ProcessId> local_ids_;
  TcpTransport transport_;
  RealCluster local_;
  bool started_ = false;
};

}  // namespace bft::runtime
