// Cluster membership and per-replica parameters.
#pragma once

#include <set>
#include <vector>

#include "consensus/quorum.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/actor.hpp"

namespace bft::storage {
class NodeStore;
}

namespace bft::smr {

/// Group membership. Replica indices (the QuorumSystem's ReplicaId space) are
/// positions in the sorted member vector, so every replica derives identical
/// indices from the same membership.
class ClusterConfig {
 public:
  /// Classic BFT-SMaRt configuration (uniform weights).
  static ClusterConfig classic(std::vector<runtime::ProcessId> members);

  /// WHEAT configuration: `vmax_members` are the 2f processes carrying Vmax.
  static ClusterConfig wheat(std::vector<runtime::ProcessId> members,
                             std::set<runtime::ProcessId> vmax_members);

  const std::vector<runtime::ProcessId>& members() const { return members_; }
  std::uint32_t n() const { return static_cast<std::uint32_t>(members_.size()); }
  bool is_wheat() const { return wheat_; }
  const std::set<runtime::ProcessId>& vmax_members() const { return vmax_members_; }

  bool contains(runtime::ProcessId p) const;
  /// Replica index of `p`; throws std::out_of_range if not a member.
  consensus::ReplicaId index_of(runtime::ProcessId p) const;
  runtime::ProcessId member_at(consensus::ReplicaId index) const;
  /// The leader process of a regency (round-robin over members).
  runtime::ProcessId leader(consensus::Epoch regency) const;

  const consensus::QuorumSystem& quorums() const { return quorums_; }

  /// Returns a new config with `p` added / removed (classic weights are
  /// recomputed; WHEAT Vmax membership is preserved where still valid).
  ClusterConfig with_member_added(runtime::ProcessId p) const;
  ClusterConfig with_member_removed(runtime::ProcessId p) const;

  Bytes encode() const;
  static ClusterConfig decode(ByteView data);

  bool operator==(const ClusterConfig& other) const {
    return members_ == other.members_ && wheat_ == other.wheat_ &&
           vmax_members_ == other.vmax_members_;
  }

 private:
  ClusterConfig(std::vector<runtime::ProcessId> members, bool wheat,
                std::set<runtime::ProcessId> vmax_members);

  std::vector<runtime::ProcessId> members_;  // sorted
  bool wheat_;
  std::set<runtime::ProcessId> vmax_members_;
  consensus::QuorumSystem quorums_;
};

struct ReplicaParams {
  std::uint32_t batch_max = 400;  // §6.2: BFT-SMaRt batch limit
  /// WHEAT tentative execution: deliver after WRITE, run ACCEPT async.
  bool tentative_execution = false;
  /// Sign WRITE messages so synchronization-phase certificates are
  /// transferable (disable on throughput benches, where no leader changes
  /// happen, to match BFT-SMaRt's MAC-authenticated normal case).
  bool sign_writes = true;
  runtime::Duration forward_timeout = runtime::msec(500);
  runtime::Duration stop_timeout = runtime::msec(1000);
  runtime::Duration sync_deadline = runtime::msec(2000);
  std::uint64_t checkpoint_period = 1024;
  std::uint64_t state_transfer_gap = 32;
  runtime::Duration state_transfer_retry = runtime::msec(500);
  /// Stall detector: seeing traffic for future slots while the next slot
  /// stays undecided for this long forces a state transfer (recovers
  /// decisions whose ACCEPT quorum this replica missed).
  runtime::Duration stall_timeout = runtime::msec(1000);
  /// Observability sinks (non-owning; must outlive the replica). The replica
  /// always records; `metrics` picks the registry that is exported, and when
  /// null the replica records into one of its own that nobody reads. Metric
  /// names are fixed (no per-node prefix), so export a single probe replica
  /// unless cross-node aggregation is wanted. `trace` is optional: null
  /// skips tracing, which decodes whole batches.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRing* trace = nullptr;
  /// Optional durable store (non-owning; must outlive the replica). When set,
  /// every confirmed decision is appended to the write-ahead log before it
  /// executes, checkpoints are persisted, and on_start resumes from disk:
  /// restore newest valid checkpoint -> verify the app's integrity digest ->
  /// replay the WAL suffix. Strictly one replica per store.
  storage::NodeStore* storage = nullptr;
};

}  // namespace bft::smr
