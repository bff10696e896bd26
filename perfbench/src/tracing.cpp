#include "tracing.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <stdexcept>

#include "smr/wire.hpp"

namespace perfbench {

namespace {

constexpr int kMaxDepth = 32;

struct Frame {
  Tracer* tracer;
  std::uint64_t index;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::uint16_t name;
  ProcessId node;
};

struct ThreadState {
  Frame frames[kMaxDepth];
  int depth = 0;
  std::uint16_t thread_id = 0;
};

std::atomic<std::uint16_t> g_next_thread{1};

ThreadState& thread_state() {
  thread_local ThreadState state;
  if (state.thread_id == 0) state.thread_id = g_next_thread.fetch_add(1);
  return state;
}

std::string kind_label(std::size_t kind) {
  if (kind == 0) return "unknown";
  return bft::smr::kind_name(static_cast<bft::smr::MsgKind>(kind));
}

std::size_t kind_slot(bft::ByteView payload) {
  if (payload.empty()) return 0;
  const auto kind = static_cast<std::size_t>(payload[0]);
  return kind < kKinds && bft::smr::kind_known(static_cast<bft::smr::MsgKind>(kind))
             ? kind
             : 0;
}

const char* const kActorCategories[] = {"smr", "ordering.frontend"};

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(capacity), spans_(new Span[capacity]) {
  std::vector<std::string> names;
  for (const char* category : kActorCategories) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      names.push_back(std::string(category) + ".prologue." + kind_label(k));
      names.push_back(std::string(category) + ".consume." + kind_label(k));
    }
    names.push_back(std::string(category) + ".timer");
    names.push_back(std::string(category) + ".start");
  }
  for (const char* name :
       {"runtime.inbox_wait", "ordering.sign_queue", "ordering.sign_job",
        "crypto.block_sign", "crypto.block_verify", "transport.send"}) {
    names.emplace_back(name);
  }
  for (const std::string& name : names) {
    ids_.emplace(name, static_cast<std::uint16_t>(names_.size()));
    names_.push_back(name);
    stats_.push_back(std::make_unique<Stats>());
    const bool loop_work = name.find(".consume.") != std::string::npos ||
                           name.ends_with(".timer") || name.ends_with(".start");
    loop_work_.push_back(loop_work);
  }
}

std::uint16_t Tracer::id(const std::string& name) const { return ids_.at(name); }

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Tracer::begin(std::uint16_t name, ProcessId node) {
  if (!active()) return false;
  ThreadState& state = thread_state();
  if (state.depth >= kMaxDepth) return false;
  Frame& frame = state.frames[state.depth++];
  frame.tracer = this;
  frame.index = next_.fetch_add(1, std::memory_order_relaxed);
  frame.child_ns = 0;
  frame.name = name;
  frame.node = node;
  frame.start_ns = now_ns();
  return true;
}

void Tracer::end() {
  const std::int64_t end = now_ns();
  ThreadState& state = thread_state();
  Frame& frame = state.frames[--state.depth];
  const std::int64_t duration = end - frame.start_ns;
  std::uint32_t parent = 0;
  if (state.depth > 0) {
    Frame& outer = state.frames[state.depth - 1];
    if (outer.tracer == this) {
      outer.child_ns += duration;
      parent = static_cast<std::uint32_t>(outer.index + 1);
    }
  }
  Stats& s = *stats_[frame.name];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.self_ns.fetch_add(static_cast<std::uint64_t>(duration - frame.child_ns),
                      std::memory_order_relaxed);
  s.duration_ns.record(duration);
  if (loop_work_[frame.name] && frame.node < kMaxNodes) {
    loop_busy_[frame.node].fetch_add(static_cast<std::uint64_t>(duration),
                                     std::memory_order_relaxed);
  }
  if (frame.index < capacity_) {
    spans_[frame.index] = Span{frame.start_ns, end, parent, frame.name,
                               state.thread_id, frame.node, 0};
  }
}

void Tracer::sample(std::uint16_t name, std::int64_t ns) {
  if (!active()) return;
  Stats& s = *stats_[name];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.duration_ns.record(ns);
}

std::uint64_t Tracer::loop_busy_ns(ProcessId node) const {
  return node < kMaxNodes ? loop_busy_[node].load(std::memory_order_relaxed) : 0;
}

void Tracer::note_arrival(const void* buffer, std::int64_t now_ns) {
  if (!active()) return;
  ArrivalShard& shard =
      arrivals_[std::hash<const void*>{}(buffer) % kArrivalShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.at[buffer] = now_ns;
}

std::int64_t Tracer::take_arrival(const void* buffer) {
  ArrivalShard& shard =
      arrivals_[std::hash<const void*>{}(buffer) % kArrivalShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.at.find(buffer);
  if (it == shard.at.end()) return -1;
  const std::int64_t at = it->second;
  shard.at.erase(it);
  return at;
}

std::uint64_t Tracer::spans_recorded() const {
  return std::min<std::uint64_t>(next_.load(), capacity_);
}

std::uint64_t Tracer::spans_dropped() const {
  const std::uint64_t total = next_.load();
  return total > capacity_ ? total - capacity_ : 0;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  std::string header = "perfbench-spans v1 record=32";
  for (const std::string& name : names_) header += " " + name;
  header += "\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), out) == header.size();
  const std::uint64_t count = spans_recorded();
  if (ok && count > 0) {
    ok = std::fwrite(spans_.get(), sizeof(Span), count, out) == count;
  }
  return std::fclose(out) == 0 && ok;
}

ActorNames::ActorNames(const Tracer& tracer, const std::string& category) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    prologue[k] = tracer.id(category + ".prologue." + kind_label(k));
    consume[k] = tracer.id(category + ".consume." + kind_label(k));
  }
  timer = tracer.id(category + ".timer");
  start = tracer.id(category + ".start");
  inbox_wait = tracer.id("runtime.inbox_wait");
  sign_queue = tracer.id("ordering.sign_queue");
  sign_job = tracer.id("ordering.sign_job");
}

// Env decorator handed to the wrapped actor: forwards everything, and times
// offloaded jobs (block signing) from submission to the moment a worker
// picks them up.
class TracedActor::TracingEnv final : public bft::runtime::Env {
 public:
  TracingEnv(bft::runtime::Env& outer, Tracer& tracer, const ActorNames& names,
             ProcessId node)
      : outer_(outer), tracer_(tracer), names_(names), node_(node) {}

  ProcessId self() const override { return outer_.self(); }
  bft::runtime::TimePoint now() const override { return outer_.now(); }
  void send(ProcessId to, bft::Payload payload) override {
    outer_.send(to, std::move(payload));
  }
  std::uint64_t set_timer(bft::runtime::Duration delay) override {
    return outer_.set_timer(delay);
  }
  void cancel_timer(std::uint64_t id) override { outer_.cancel_timer(id); }
  void submit_work(bft::runtime::Duration cost_hint, std::function<bft::Bytes()> work,
                   std::function<void(bft::Bytes)> done) override {
    const std::int64_t submitted = Tracer::now_ns();
    Tracer* tracer = &tracer_;
    const ActorNames* names = &names_;
    const ProcessId node = node_;
    outer_.submit_work(
        cost_hint,
        [tracer, names, node, submitted, work = std::move(work)]() {
          tracer->sample(names->sign_queue, Tracer::now_ns() - submitted);
          ScopedSpan span(tracer, names->sign_job, node);
          return work();
        },
        std::move(done));
  }
  void charge_cpu(bft::runtime::Duration cost) override { outer_.charge_cpu(cost); }
  bft::Rng& rng() override { return outer_.rng(); }

 private:
  bft::runtime::Env& outer_;
  Tracer& tracer_;
  const ActorNames& names_;
  ProcessId node_;
};

TracedActor::TracedActor(bft::runtime::Actor& inner, Tracer& tracer,
                         const ActorNames& names, ProcessId node)
    : inner_(inner), tracer_(tracer), names_(names), node_(node) {}

TracedActor::~TracedActor() = default;

void TracedActor::on_start(bft::runtime::Env& env) {
  Actor::on_start(env);
  env_ = std::make_unique<TracingEnv>(env, tracer_, names_, node_);
  ScopedSpan span(&tracer_, names_.start, node_);
  inner_.on_start(*env_);
}

bft::runtime::Verified TracedActor::prologue(ProcessId from,
                                             bft::Payload payload) const {
  const std::int64_t arrived = tracer_.take_arrival(payload.buffer_id());
  if (arrived >= 0) tracer_.sample(names_.inbox_wait, Tracer::now_ns() - arrived);
  ScopedSpan span(&tracer_, names_.prologue[kind_slot(payload.view())], node_);
  return inner_.prologue(from, std::move(payload));
}

void TracedActor::consume(bft::runtime::Verified&& verified) {
  ScopedSpan span(&tracer_, names_.consume[kind_slot(verified.payload.view())],
                  node_);
  inner_.consume(std::move(verified));
}

void TracedActor::on_message(ProcessId from, bft::ByteView payload) {
  ScopedSpan span(&tracer_, names_.consume[kind_slot(payload)], node_);
  inner_.on_message(from, payload);
}

void TracedActor::on_timer(std::uint64_t timer_id) {
  ScopedSpan span(&tracer_, names_.timer, node_);
  inner_.on_timer(timer_id);
}

void TracedActor::on_recover() { inner_.on_recover(); }

TracingTransport::TracingTransport(bft::runtime::Transport& inner,
                                   Tracer& tracer, ProcessId node)
    : inner_(inner),
      tracer_(tracer),
      node_(node),
      send_name_(tracer.id("transport.send")) {}

void TracingTransport::start(DeliverFn deliver) {
  Tracer* tracer = &tracer_;
  inner_.start([tracer, deliver = std::move(deliver)](
                   ProcessId from, ProcessId to, bft::Payload frame) {
    tracer->note_arrival(frame.buffer_id(), Tracer::now_ns());
    deliver(from, to, std::move(frame));
  });
}

bool TracingTransport::send(ProcessId from, ProcessId to, bft::Payload frame) {
  ScopedSpan span(&tracer_, send_name_, node_);
  return inner_.send(from, to, std::move(frame));
}

TracingSigner::TracingSigner(std::shared_ptr<bft::ordering::BlockSigner> inner,
                             Tracer& tracer, ProcessId node)
    : inner_(std::move(inner)),
      tracer_(tracer),
      node_(node),
      sign_name_(tracer.id("crypto.block_sign")),
      verify_name_(tracer.id("crypto.block_verify")) {}

bft::Bytes TracingSigner::sign(const bft::crypto::Hash256& header_digest) const {
  ScopedSpan span(&tracer_, sign_name_, node_);
  return inner_->sign(header_digest);
}

bool TracingSigner::verify(ProcessId signer,
                           const bft::crypto::Hash256& header_digest,
                           bft::ByteView signature) const {
  ScopedSpan span(&tracer_, verify_name_, node_);
  return inner_->verify(signer, header_digest, signature);
}

}  // namespace perfbench
