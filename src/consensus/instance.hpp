// One VP-Consensus instance (Mod-SMaRt's per-slot Byzantine consensus, the
// PROPOSE / WRITE / ACCEPT pattern of Figure 3 in the paper).
//
// The Instance is a passive vote-accounting state machine: the SMR replica
// feeds it decoded messages and acts on the returned edge-triggered booleans
// (send WRITE, send ACCEPT, deliver decision). Epochs correspond to regencies;
// a leader change moves the instance to a higher epoch, keeping per-epoch
// vote books separate.
//
// Byzantine-safety accounting per epoch: only a replica's first vote counts
// (equivocating duplicates are ignored), quorums are weighed through the
// QuorumSystem, and decisions latch permanently once reached.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "consensus/quorum.hpp"
#include "crypto/sha256.hpp"
#include "obs/metrics.hpp"

namespace bft::consensus {

using ValueHash = crypto::Hash256;

/// Digest a proposed value for WRITE/ACCEPT voting.
ValueHash value_hash(ByteView value);

/// Digest the (cid, epoch, hash) triple a signed WRITE attests to.
crypto::Hash256 write_attestation_digest(ConsensusId cid, Epoch epoch,
                                         const ValueHash& hash);

/// A signed WRITE vote, transferable evidence for the synchronization phase.
struct WriteVote {
  ReplicaId from = 0;
  Bytes signature;  // empty when the cluster runs unsigned writes
};

/// Proof that some write quorum backed `hash` in `epoch`.
struct WriteCertificate {
  ConsensusId cid = 0;
  Epoch epoch = 0;
  ValueHash hash{};
  std::vector<WriteVote> votes;
};

/// Vote-accounting counters shared by every instance of one replica (the
/// replica registers them once and hands them to each instance it creates).
struct InstanceMetrics {
  obs::Counter& write_votes;      // WRITE votes registered
  obs::Counter& accept_votes;     // ACCEPT votes registered
  obs::Counter& duplicate_votes;  // re-votes dropped by the first-vote-only
                                  // rule
};

class Instance {
 public:
  /// `metrics` is borrowed and must outlive the instance.
  Instance(ConsensusId cid, const QuorumSystem* quorums,
           const InstanceMetrics& metrics);

  ConsensusId cid() const { return cid_; }

  /// Stores a value so it can be matched against its hash later; returns the
  /// hash. Idempotent.
  ValueHash add_value(Bytes value);
  bool has_value(const ValueHash& hash) const;
  /// Value bytes for `hash`; nullptr if never seen.
  const Bytes* value_for(const ValueHash& hash) const;

  /// Validates and registers a PROPOSE. Returns true exactly when this is the
  /// first valid proposal of `epoch` from its expected leader (the caller
  /// should then send WRITE).
  bool on_propose(Epoch epoch, ReplicaId from, ReplicaId expected_leader,
                  const ValueHash& hash);

  /// The hash proposed in `epoch`, if a valid PROPOSE was registered.
  std::optional<ValueHash> proposed_hash(Epoch epoch) const;

  /// Registers a WRITE vote. Returns true exactly when a write quorum is
  /// newly assembled in `epoch` (the caller should then send ACCEPT).
  bool on_write(Epoch epoch, ReplicaId from, const ValueHash& hash,
                Bytes signature);

  /// Registers an ACCEPT vote. Returns true exactly when the instance newly
  /// decides (in any epoch; decisions latch).
  bool on_accept(Epoch epoch, ReplicaId from, const ValueHash& hash);

  /// Hash that reached the write quorum in `epoch`, if any.
  std::optional<ValueHash> write_quorum_hash(Epoch epoch) const;
  /// Certificate for the write quorum of `epoch` (empty optional if none).
  std::optional<WriteCertificate> write_certificate(Epoch epoch) const;

  bool decided() const { return decided_.has_value(); }
  const ValueHash& decided_hash() const { return *decided_; }
  /// Epoch in which the decision was reached.
  Epoch decided_epoch() const { return decided_epoch_; }

  /// Highest epoch for which this instance saw any traffic.
  Epoch highest_epoch() const;

 private:
  struct EpochBook {
    std::optional<ValueHash> proposed;
    // First WRITE per replica; by-hash tallies with signatures.
    std::map<ReplicaId, ValueHash> write_votes;
    std::map<ValueHash, std::vector<WriteVote>> write_by_hash;
    std::optional<ValueHash> write_quorum;
    std::map<ReplicaId, ValueHash> accept_votes;
    std::map<ValueHash, std::set<ReplicaId>> accept_by_hash;
  };

  Weight weight_of_votes(const std::vector<WriteVote>& votes) const;

  ConsensusId cid_;
  const QuorumSystem* quorums_;
  std::map<Epoch, EpochBook> epochs_;
  std::map<ValueHash, Bytes> values_;
  std::optional<ValueHash> decided_;
  Epoch decided_epoch_ = 0;
  const InstanceMetrics* metrics_;
};

}  // namespace bft::consensus
