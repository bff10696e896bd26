// Application interface replicated by the SMR layer.
//
// The BFT-SMaRt ordering service (src/ordering) implements this; tests use
// small counter/KV machines. Contract:
//   * execute is deterministic — identical request sequences from identical
//     snapshots must yield identical replies and state;
//   * snapshot/restore round-trip the full application state (the paper's
//     ordering service keeps only the next block sequence number and the
//     previous header hash, which is what makes checkpoints cheap, §5.2);
//   * execute may be called again after restore for the same requests
//     (tentative-execution rollback, state transfer) — it must not have
//     external side effects it cannot repeat.
#pragma once

#include "crypto/sha256.hpp"
#include "smr/wire.hpp"

namespace bft::smr {

/// Execution metadata handed to the application with each request.
struct ExecutionContext {
  ConsensusId cid = 0;
  std::size_t index_in_batch = 0;
  std::size_t batch_size = 0;
  /// True when delivered speculatively after the WRITE quorum (WHEAT); such
  /// an execution may later be rolled back via restore().
  bool tentative = false;
};

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Executes one ordered request and returns the reply payload.
  virtual Bytes execute(const Request& request, const ExecutionContext& ctx) = 0;

  /// Serializes the full application state.
  virtual Bytes snapshot() const = 0;

  /// Replaces the application state with a previously captured snapshot.
  virtual void restore(ByteView snapshot) = 0;

  /// Digest of the application's externally visible position (for the
  /// ordering service: every channel's chain head). Durable recovery stores
  /// this beside each checkpoint and recomputes it after restoring — a
  /// mismatch means the checkpoint decodes into a different history than it
  /// was taken from, and recovery refuses it (fail closed) rather than rejoin
  /// with a forked chain. Default: hash of the full snapshot.
  virtual crypto::Hash256 integrity_digest() const {
    return crypto::sha256(snapshot());
  }

  /// Number of further requests that complete the application's next unit
  /// of output (for the ordering service: the next block). The leader
  /// proposes at once when its proposable requests reach this count and
  /// otherwise holds the proposal for up to half the request timeout, so
  /// answer more than 1 only while the output waits for them. The default,
  /// 1, never holds.
  virtual std::size_t requests_to_next_output() const { return 1; }

  /// Fired for timers the application armed via Replica::set_app_timer.
  /// Local (non-replicated) machinery only — batch timeouts and the like.
  virtual void on_app_timer(std::uint64_t token) { (void)token; }

  /// Called when the hosting replica recovers from a crash fault. Every app
  /// timer armed before the crash is gone; re-arm local machinery here.
  virtual void on_recover() {}

  /// Called after a state transfer installed a snapshot (and replayed the
  /// agreed log on top of it). Restores and replayed executions must stay
  /// side-effect free, so an app with external observers re-announces here —
  /// e.g. the ordering node re-pushes its recent blocks to frontends.
  virtual void on_state_installed() {}
};

/// Reply routing. The default implementation (used when none is supplied)
/// sends each reply to the requesting client; the ordering service installs a
/// custom replier that pushes signed blocks to its registered receivers
/// instead (§5.1).
class Replica;
class Replier {
 public:
  virtual ~Replier() = default;
  /// Called after each request executes. `reply` may be empty.
  virtual void on_executed(Replica& replica, const Request& request,
                           const Bytes& reply, const ExecutionContext& ctx) = 0;
  /// Called when `receiver` registers for pushes for the first time. A
  /// receiver that registers late has missed every earlier push; the
  /// ordering node re-sends its recent blocks to it here.
  virtual void on_receiver_registered(Replica& replica,
                                      runtime::ProcessId receiver) {
    (void)replica;
    (void)receiver;
  }
};

}  // namespace bft::smr
