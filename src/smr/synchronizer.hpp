// Mod-SMaRt's synchronization phase (§4): a quorum of STOPs installs the next
// regency; every replica sends the new leader a signed STOPDATA with its
// highest write certificate for the first undecided slot; the leader answers
// with SYNC, a quorum of STOPDATAs plus the value to propose. The leader and
// its followers accept that value through one check, check_stopdata_set.
//
// The Synchronizer owns the phase's state and drives consensus through the
// replica's consensus interface (install_regency, raise_regency,
// accept_proposal, request_value).
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "crypto/authenticator.hpp"
#include "smr/config.hpp"
#include "smr/wire.hpp"

namespace bft::smr {

class Replica;
class StateTransfer;

/// What a checked STOPDATA set lets SYNC propose for its slot.
struct SyncChoice {
  /// Highest-epoch certificate in the set; nullopt: any batch will do.
  std::optional<WriteCertificate> cert;

  bool admits(ByteView value) const {
    return !cert.has_value() || consensus::value_hash(value) == cert->hash;
  }
};

/// The STOPDATA-set check: every entry is for (`epoch`, `cid`), signed by a
/// distinct member, with a valid certificate if any, and the senders form a
/// quorum. nullopt when the set fails.
std::optional<SyncChoice> check_stopdata_set(const std::vector<StopData>& set,
                                             Epoch epoch, ConsensusId cid,
                                             const ClusterConfig& config,
                                             const crypto::Authenticator& auth,
                                             bool sign_writes);

class Synchronizer {
 public:
  Synchronizer(Replica& replica, StateTransfer& transfer,
               const ReplicaParams& params, const crypto::Authenticator& auth)
      : replica_(replica), transfer_(transfer), params_(params), auth_(auth) {}

  /// True from installing a regency until the WRITE quorum of the slot under
  /// synchronization; the leader proposes nothing meanwhile.
  bool active() const { return active_; }
  /// `base` doubled per missed sync deadline since the last decision (<= 2^6).
  runtime::Duration backed_off(runtime::Duration base) const {
    return base << std::min<std::uint32_t>(backoff_, 6);
  }

  /// Demands the regency after every one seen or asked for.
  void start_regency_change();
  void handle_stop(runtime::ProcessId from, const Stop& msg);
  void handle_stopdata(runtime::ProcessId from, const StopData& msg);
  void handle_sync(runtime::ProcessId from, const Sync& msg);
  /// Leader: sends SYNC once a quorum of STOPDATAs for the slot is in and the
  /// value to propose is known (retried when a missing value arrives).
  void maybe_send_sync();

  void on_write_quorum(ConsensusId cid) {
    if (cid == cid_) active_ = false;
  }
  void on_decided(ConsensusId cid);
  /// The confirmed cursor passed the slot under synchronization: point our
  /// STOPDATA at the new next slot.
  void on_cursor_moved();
  /// True when `timer_id` was the sync deadline.
  bool on_timer(std::uint64_t timer_id);
  void on_recover();

 private:
  void install(Epoch next);
  void send_stopdata();

  Replica& replica_;
  StateTransfer& transfer_;
  const ReplicaParams& params_;
  const crypto::Authenticator& auth_;

  std::map<Epoch, std::set<runtime::ProcessId>> stop_votes_;
  std::set<Epoch> sent_stop_;
  bool active_ = false;
  ConsensusId cid_ = 0;  // slot under synchronization
  std::map<runtime::ProcessId, StopData> stopdatas_;  // leader: latest valid
  std::uint64_t deadline_timer_ = 0;
  std::uint32_t backoff_ = 0;
};

}  // namespace bft::smr
