// Convenience builder assembling a complete ordering service (nodes + their
// replicas) ready for registration with either runtime. Used by tests,
// examples and the benchmark harness.
#pragma once

#include <memory>
#include <vector>

#include "ordering/frontend.hpp"
#include "ordering/node.hpp"

namespace bft::ordering {

/// Plain aggregate: assign fields, or name them in a C++20 designated
/// initializer (`ServiceOptions{.nodes = {0, 1, 2, 3}, .block_size = 10}`).
/// Every member has a default initializer, so omitted ones draw no
/// -Wmissing-field-initializers warning.
struct ServiceOptions {
  /// Ordering-node process ids (e.g. 0..n-1). WHEAT deployments list the
  /// Vmax carriers in `vmax_nodes`.
  std::vector<runtime::ProcessId> nodes{};
  std::set<runtime::ProcessId> vmax_nodes{};  // empty -> classic BFT-SMaRt
  std::string channel = "channel-0";
  std::size_t block_size = 10;
  /// Cut partial blocks after this long (0 = never), via ordered markers.
  runtime::Duration batch_timeout = 0;
  smr::ReplicaParams replica_params{};
  /// Use keyed-hash stub signatures with calibrated cost instead of real
  /// ECDSA (for discrete-event benchmarks).
  bool stub_signatures = false;
  /// Simulated cost of one block signature.
  runtime::Duration signature_cost = runtime::usec(1905);
  /// HLF double-signing mode (footnote 10).
  bool double_sign = false;
  /// Byzantine fault injection: these nodes emit invalid block signatures
  /// (their blocks are correct, their signatures never verify).
  std::set<runtime::ProcessId> corrupt_signers{};
  /// Observability sinks (non-owning; must outlive the service). Every node
  /// records; `metrics` is exported for the replica + ordering node of
  /// `metrics_node` only, since metric names carry no per-node prefix (the
  /// other nodes record into registries of their own). Frontends are wired
  /// separately by the caller. `trace` follows `metrics` and is optional.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
  runtime::ProcessId metrics_node = 0;
};

/// One ordering node and its replica, wired together.
struct NodeBundle {
  std::shared_ptr<BlockSigner> signer;
  std::unique_ptr<OrderingNode> app;
  std::unique_ptr<smr::Replica> replica;
};

struct Service {
  smr::ClusterConfig cluster;
  std::vector<NodeBundle> nodes;
};

/// Builds the node side of an ordering service. Caller registers each
/// `nodes[i].replica.get()` with a runtime under process id
/// `cluster.members()[i]`.
Service make_service(const ServiceOptions& options);

/// One node of a multi-process deployment: only `self`'s bundle exists in
/// this OS process, the other members are remote peers.
struct SingleNode {
  smr::ClusterConfig cluster;
  NodeBundle node;
};

/// Builds `self`'s slice of the service described by `options` (self must be
/// listed in options.nodes). Register `node.replica.get()` under `self`.
SingleNode make_node(const ServiceOptions& options, runtime::ProcessId self);

/// Standalone signature verifier equivalent to the nodes' signing backend —
/// for frontends running in a different OS process than any node.
std::shared_ptr<BlockSigner> make_verifier(const ServiceOptions& options);

/// Frontend options consistent with a service (weighted quorum under WHEAT).
FrontendOptions make_frontend_options(const Service& service,
                                      const ServiceOptions& options);

/// Frontend options for a frontend with no in-process Service (multi-process
/// deployments); builds its own verifier.
FrontendOptions make_frontend_options(const ServiceOptions& options);

}  // namespace bft::ordering
