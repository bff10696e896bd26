// Benchmark-side tracing: spans recorded around the calls into each layer,
// from decorators over the program's public seams only (runtime::Actor,
// runtime::Env, runtime::Transport, ordering::BlockSigner). Nothing here
// changes the program; an untraced run builds none of it.
//
// A span records name, start, end, thread, node and parent (the enclosing
// benchmark span on the same thread). Spans live in one preallocated buffer
// and are written out when the run ends; per-name aggregates (count,
// duration histogram, self time) are kept on the fly so a full buffer loses
// no statistics. Self time is a span's duration minus the time its child
// spans cover. Only spans that begin while the tracer is active (the
// measured window) are counted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "ordering/signer.hpp"
#include "runtime/actor.hpp"
#include "runtime/transport.hpp"

namespace perfbench {

using bft::runtime::ProcessId;

/// Number of wire kinds tracked per category (MsgKind tags are 1..17; slot 0
/// collects unknown or empty payloads).
constexpr std::size_t kKinds = 18;

class Tracer {
 public:
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;  // index + 1 of the enclosing span, 0 = none
    std::uint16_t name;
    std::uint16_t thread;
    std::uint32_t node;
    std::uint32_t pad;
  };

  struct Stats {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> self_ns{0};
    bft::obs::LatencyHistogram duration_ns;
  };

  /// Registers every span name up front, so lookups need no lock even when
  /// decorators are built mid-window (a restarted node).
  explicit Tracer(std::size_t capacity);

  /// Id of a registered span name; throws std::out_of_range otherwise.
  std::uint16_t id(const std::string& name) const;
  const std::vector<std::string>& names() const { return names_; }

  void set_active(bool active) { active_.store(active, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_acquire); }

  /// Opens a span on the calling thread; returns false when inactive.
  bool begin(std::uint16_t name, ProcessId node);
  /// Closes the innermost span opened by begin() on this thread.
  void end();

  /// Records a plain latency sample (no span) under `name`.
  void sample(std::uint16_t name, std::int64_t ns);

  const Stats& stats(std::uint16_t name) const { return *stats_[name]; }
  /// Sum over the window of event-loop span time per node (consume, timer
  /// and start spans of actors), used for loop busy percentages.
  std::uint64_t loop_busy_ns(ProcessId node) const;

  /// Frame arrival stamps keyed by payload buffer (transport -> prologue).
  void note_arrival(const void* buffer, std::int64_t now_ns);
  /// Removes and returns the arrival stamp of `buffer` (-1 when unknown).
  std::int64_t take_arrival(const void* buffer);

  std::uint64_t spans_recorded() const;
  std::uint64_t spans_dropped() const;
  /// Writes the span buffer: a header line of names, then fixed records.
  bool write(const std::string& path) const;

  static std::int64_t now_ns();

 private:
  static constexpr std::size_t kMaxNodes = 256;
  static constexpr std::size_t kArrivalShards = 16;

  std::size_t capacity_;
  std::unique_ptr<Span[]> spans_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> active_{false};
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> ids_;
  std::vector<std::unique_ptr<Stats>> stats_;
  std::vector<bool> loop_work_;  // by name id: span runs on an event loop
  std::array<std::atomic<std::uint64_t>, kMaxNodes> loop_busy_{};

  struct ArrivalShard {
    std::mutex mu;
    std::unordered_map<const void*, std::int64_t> at;
  };
  std::array<ArrivalShard, kArrivalShards> arrivals_;
};

/// RAII span; a no-op when the tracer is null or inactive.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint16_t name, ProcessId node)
      : tracer_(tracer != nullptr && tracer->begin(name, node) ? tracer : nullptr) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Span names for one actor category ("smr" or "ordering.frontend"):
/// <cat>.prologue.<kind>, <cat>.consume.<kind>, <cat>.timer, <cat>.start,
/// plus the inbox-wait sample runtime.inbox_wait.
struct ActorNames {
  ActorNames(const Tracer& tracer, const std::string& category);
  std::array<std::uint16_t, kKinds> prologue{};
  std::array<std::uint16_t, kKinds> consume{};
  std::uint16_t timer = 0;
  std::uint16_t start = 0;
  std::uint16_t inbox_wait = 0;
  std::uint16_t sign_queue = 0;
  std::uint16_t sign_job = 0;
};

/// Actor decorator: forwards every entry point to `inner`, recording a span
/// per call named by the message's wire kind (smr::peek_kind). Hands the
/// inner actor an Env decorator that times the signing jobs it offloads.
class TracedActor final : public bft::runtime::Actor {
 public:
  TracedActor(bft::runtime::Actor& inner, Tracer& tracer, const ActorNames& names,
              ProcessId node);
  ~TracedActor() override;

  void on_start(bft::runtime::Env& env) override;
  bft::runtime::Verified prologue(ProcessId from,
                                  bft::Payload payload) const override;
  void consume(bft::runtime::Verified&& verified) override;
  void on_message(ProcessId from, bft::ByteView payload) override;
  void on_timer(std::uint64_t timer_id) override;
  void on_recover() override;

 private:
  class TracingEnv;

  bft::runtime::Actor& inner_;
  Tracer& tracer_;
  const ActorNames& names_;
  ProcessId node_;
  std::unique_ptr<TracingEnv> env_;
};

/// Transport decorator: times send() and stamps every inbound frame's
/// arrival before handing it to the runtime's DeliverFn.
class TracingTransport final : public bft::runtime::Transport {
 public:
  TracingTransport(bft::runtime::Transport& inner, Tracer& tracer,
                   ProcessId node);

  void start(DeliverFn deliver) override;
  void stop() override { inner_.stop(); }
  bool send(ProcessId from, ProcessId to, bft::Payload frame) override;

 private:
  bft::runtime::Transport& inner_;
  Tracer& tracer_;
  ProcessId node_;
  std::uint16_t send_name_;
};

/// BlockSigner decorator: spans crypto.block_sign / crypto.block_verify.
class TracingSigner final : public bft::ordering::BlockSigner {
 public:
  TracingSigner(std::shared_ptr<bft::ordering::BlockSigner> inner,
                Tracer& tracer, ProcessId node);

  bft::Bytes sign(const bft::crypto::Hash256& header_digest) const override;
  bool verify(ProcessId signer, const bft::crypto::Hash256& header_digest,
              bft::ByteView signature) const override;
  bft::runtime::Duration cost_hint() const override { return inner_->cost_hint(); }

 private:
  std::shared_ptr<bft::ordering::BlockSigner> inner_;
  Tracer& tracer_;
  ProcessId node_;
  std::uint16_t sign_name_;
  std::uint16_t verify_name_;
};

}  // namespace perfbench
