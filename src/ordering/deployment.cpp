#include "ordering/deployment.hpp"

#include <algorithm>

namespace bft::ordering {

namespace {

std::shared_ptr<BlockSigner> make_signer(const ServiceOptions& options,
                                         runtime::ProcessId node) {
  std::shared_ptr<BlockSigner> signer;
  if (options.stub_signatures) {
    signer = std::make_shared<StubBlockSigner>(node, options.signature_cost);
  } else {
    signer = std::make_shared<EcdsaBlockSigner>(node, options.signature_cost);
  }
  if (options.corrupt_signers.count(node) > 0) {
    signer = std::make_shared<CorruptingBlockSigner>(std::move(signer));
  }
  return signer;
}

smr::ClusterConfig make_cluster(const ServiceOptions& options) {
  return options.vmax_nodes.empty()
             ? smr::ClusterConfig::classic(options.nodes)
             : smr::ClusterConfig::wheat(options.nodes, options.vmax_nodes);
}

NodeBundle make_bundle(const ServiceOptions& options,
                       const smr::ClusterConfig& cluster,
                       runtime::ProcessId node) {
  NodeBundle bundle;
  bundle.signer = make_signer(options, node);
  // Only the probe node exports; the others record into their own registries.
  const bool exported =
      options.metrics != nullptr && node == options.metrics_node;
  OrderingNodeOptions node_options;
  node_options.default_channel = options.channel;
  node_options.block_size = options.block_size;
  node_options.batch_timeout = options.batch_timeout;
  node_options.double_sign = options.double_sign;
  if (exported) {
    node_options.metrics = options.metrics;
    node_options.trace = options.trace;
  }
  bundle.app = std::make_unique<OrderingNode>(node_options, bundle.signer);
  smr::ReplicaParams replica_params = options.replica_params;
  if (exported) {
    replica_params.metrics = options.metrics;
    replica_params.trace = options.trace;
  } else {
    replica_params.metrics = nullptr;
    replica_params.trace = nullptr;
  }
  bundle.replica = std::make_unique<smr::Replica>(
      node, cluster, replica_params, bundle.app.get(), bundle.app.get());
  bundle.app->attach(*bundle.replica);
  return bundle;
}

}  // namespace

Service make_service(const ServiceOptions& options) {
  if (options.nodes.empty()) {
    throw std::invalid_argument("make_service: need at least one node");
  }
  if (options.replica_params.storage != nullptr && options.nodes.size() > 1) {
    // A NodeStore stamps one node id and holds one WAL: sharing it across
    // replicas would interleave their histories. Build per-node services
    // with make_node when durability is wanted.
    throw std::invalid_argument(
        "make_service: replica_params.storage is per-node; use make_node");
  }
  Service service{make_cluster(options), {}};
  for (runtime::ProcessId node : service.cluster.members()) {
    service.nodes.push_back(make_bundle(options, service.cluster, node));
  }
  return service;
}

SingleNode make_node(const ServiceOptions& options, runtime::ProcessId self) {
  if (std::find(options.nodes.begin(), options.nodes.end(), self) ==
      options.nodes.end()) {
    throw std::invalid_argument("make_node: " + std::to_string(self) +
                                " is not in options.nodes");
  }
  SingleNode single{make_cluster(options), {}};
  single.node = make_bundle(options, single.cluster, self);
  return single;
}

std::shared_ptr<BlockSigner> make_verifier(const ServiceOptions& options) {
  if (options.nodes.empty()) {
    throw std::invalid_argument("make_verifier: need at least one node");
  }
  // Verification does not depend on which node's keypair the backend holds,
  // so any member works; skip the corruption wrapper — it only affects
  // signing.
  const runtime::ProcessId node = options.nodes.front();
  if (options.stub_signatures) {
    return std::make_shared<StubBlockSigner>(node, options.signature_cost);
  }
  return std::make_shared<EcdsaBlockSigner>(node, options.signature_cost);
}

FrontendOptions make_frontend_options(const Service& service,
                                      const ServiceOptions& options) {
  FrontendOptions fo;
  fo.channel = options.channel;
  fo.weighted_quorum = options.replica_params.tentative_execution;
  fo.verifier = service.nodes.empty() ? nullptr : service.nodes.front().signer;
  return fo;
}

FrontendOptions make_frontend_options(const ServiceOptions& options) {
  FrontendOptions fo;
  fo.channel = options.channel;
  fo.weighted_quorum = options.replica_params.tentative_execution;
  fo.verifier = make_verifier(options);
  return fo;
}

}  // namespace bft::ordering
