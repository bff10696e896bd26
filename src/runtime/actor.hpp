// Runtime abstraction: protocol code is written as single-threaded reactive
// actors against this interface, and runs unchanged on either
//
//   * the simulated runtime (sim_runtime.hpp) — deterministic discrete-event
//     execution with network/CPU models, used by the benchmark harness; or
//   * the real runtime (real_runtime.hpp) — one event-loop thread per actor
//     with in-memory channels, used by tests and examples.
//
// Rules for actor code: never block, never touch wall-clock time or global
// randomness directly, interact with the world only through Env.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace bft::runtime {

/// Dense process identifier. Convention used across this codebase: ordering
/// nodes occupy [0, n), frontends/clients follow.
using ProcessId = std::uint32_t;

/// Nanoseconds since the run started (simulated or steady-clock).
using TimePoint = std::int64_t;
using Duration = std::int64_t;

constexpr Duration usec(std::int64_t v) { return v * 1000; }
constexpr Duration msec(std::int64_t v) { return v * 1000 * 1000; }
constexpr Duration sec(std::int64_t v) { return v * 1000 * 1000 * 1000; }

/// Per-process handle to the runtime; valid for the actor's lifetime.
class Env {
 public:
  virtual ~Env() = default;

  virtual ProcessId self() const = 0;
  virtual TimePoint now() const = 0;

  /// Asynchronous, unordered-across-peers, FIFO-per-pair message send.
  /// Delivery is best-effort: the runtime (or a fault plan) may drop it.
  ///
  /// The payload is a shared immutable handle: fanning the same Payload out
  /// to n-1 peers costs one allocation total, not one per destination.
  /// `Bytes` converts implicitly, so `send(to, encode_x(...))` keeps working
  /// by value as a convenience.
  virtual void send(ProcessId to, Payload payload) = 0;

  /// One-shot timer; the returned id (never 0) is passed to on_timer.
  virtual std::uint64_t set_timer(Duration delay) = 0;
  virtual void cancel_timer(std::uint64_t id) = 0;

  /// Offloads CPU-heavy work (block signing) to the node's worker pool.
  /// `work` runs off the event loop; `done` is invoked back on the event loop
  /// with its result. `cost_hint` drives the simulated duration (the real
  /// runtime ignores it and takes however long `work` takes).
  virtual void submit_work(Duration cost_hint, std::function<Bytes()> work,
                           std::function<void(Bytes)> done) = 0;

  /// Accounts CPU consumed by the current handler (simulated runtime only;
  /// no-op on the real runtime where the work itself takes the time).
  virtual void charge_cpu(Duration cost) = 0;

  /// Deterministic per-process random stream.
  virtual Rng& rng() = 0;
};

/// Output of the prologue phase: the message plus everything the thread-safe
/// classification/verification pass established about it. Runtimes carry it
/// from Actor::prologue to Actor::consume; the ordered-epilogue machinery
/// (runner.hpp) guarantees consume order == arrival order even when
/// prologues run concurrently.
struct Verified {
  ProcessId from = 0;
  Payload payload;

  /// Verdict of the prologue's signature check. Fail-closed: consume()
  /// drops any message that needs a signature unless the verdict is
  /// `accepted`; kinds that carry no signature ignore it.
  enum class Auth : std::uint8_t { rejected = 0, accepted };
  Auth auth = Auth::rejected;

  /// Simulated CPU cost of the prologue work (decode + verify). The
  /// simulated runtime charges it to the prologue worker servers when the
  /// process models `prologue_workers > 0`; the real runtime ignores it.
  Duration prologue_cost = 0;
  /// Set by the runtime: how much of the handler's cost it already charged
  /// on the actor's behalf (the offloaded prologue share). consume() must
  /// subtract this from its own charge so totals match the serial path.
  Duration prologue_charged = 0;
};

/// A reactive protocol participant.
///
/// Message handling is a two-phase API driven identically by the simulated,
/// threaded and TCP runtimes:
///
///   1. prologue(from, payload) — const and thread-safe; classify the
///      message and perform any signature verification that needs no actor
///      state. May run concurrently with consume() and with other prologues.
///   2. consume(Verified&&) — single-threaded, in protocol order; all state
///      mutation happens here.
///
/// Actors that verify no signatures just implement on_message: the default
/// prologue passes the payload through and the default consume delegates to
/// on_message. Actors that do verify override prologue and consume instead,
/// and then have no on_message.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called once before any message/timer, with the permanently valid env.
  virtual void on_start(Env& env) { env_ = &env; }

  /// Phase 1 of message handling. Must not touch mutable actor state, the
  /// Env, or anything else that races with consume()/on_timer().
  virtual Verified prologue(ProcessId from, Payload payload) const {
    Verified v;
    v.from = from;
    v.payload = std::move(payload);
    return v;
  }

  /// Phase 2 of message handling; runs on the home thread in arrival order.
  virtual void consume(Verified&& verified) {
    on_message(verified.from, verified.payload.view());
  }

  /// Single-phase handler of actors that verify no signatures (the default
  /// consume() lands here).
  virtual void on_message(ProcessId from, ByteView payload) {
    (void)from;
    (void)payload;
  }

  virtual void on_timer(std::uint64_t timer_id) = 0;
  /// Called when the runtime resurrects this process after a crash fault.
  /// Every timer and in-flight worker completion set before the crash is
  /// gone; implementations must re-arm whatever their liveness depends on.
  virtual void on_recover() {}

 protected:
  Env& env() const { return *env_; }

 private:
  Env* env_ = nullptr;
};

}  // namespace bft::runtime
