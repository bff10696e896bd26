// Byzantine replica wrappers for fault-injection tests.
//
// A ByzantineReplica hosts a real Replica but interposes a tampering Env
// between it and the runtime, so the inner replica runs the genuine protocol
// while its *outgoing* traffic is adversarially rewritten. This models the
// paper's strongest fault assumption — a node that follows the code except
// where lying benefits it — without forking the replica implementation:
//
//   * equivocate_proposals — as the epoch-0 leader, every PROPOSE is rewritten
//     into a different batch per destination. No write quorum can form on any
//     single value, honest replicas time out, and the synchronization phase
//     must elect an honest leader (safety: quorum intersection keeps the
//     decided prefix fork-free).
//   * mute_leader — as the epoch-0 leader, every PROPOSE is swallowed. The
//     cluster sees a live node (WRITEs/ACCEPTs still flow) that simply never
//     orders anything, which only the request-timeout path can detect.
//
// Both behaviors act only on epoch-0 proposals: once an honest regency is
// installed the wrapper is a bystander, which keeps chaos scenarios live
// (the node leads again every n regencies and must not stall each turn).
#pragma once

#include <memory>

#include "smr/replica.hpp"

namespace bft::smr {

enum class ByzantineBehavior : std::uint8_t {
  equivocate_proposals,
  mute_leader,
};

class ByzantineReplica final : public runtime::Actor {
 public:
  /// `inner` is borrowed and must outlive the wrapper. Register the wrapper
  /// (not the inner replica) with the runtime.
  ByzantineReplica(Replica& inner, ByzantineBehavior behavior);
  ~ByzantineReplica() override;

  void on_start(runtime::Env& env) override;
  /// Both phases go to the inner replica, so inbound traffic takes the
  /// verification path a correct replica takes.
  runtime::Verified prologue(runtime::ProcessId from,
                             Payload payload) const override;
  void consume(runtime::Verified&& verified) override;
  void on_timer(std::uint64_t timer_id) override;
  void on_recover() override;

  /// Number of proposals equivocated or suppressed so far.
  std::uint64_t tampered_sends() const { return tampered_; }
  Replica& inner() { return inner_; }

 private:
  class TamperEnv;

  Replica& inner_;
  ByzantineBehavior behavior_;
  std::unique_ptr<TamperEnv> tamper_;
  std::uint64_t tampered_ = 0;
};

}  // namespace bft::smr
