#include "smr/byzantine.hpp"

namespace bft::smr {

// Env proxy: forwards everything to the real runtime env except send(),
// which rewrites epoch-0 proposals according to the configured behavior.
class ByzantineReplica::TamperEnv final : public runtime::Env {
 public:
  explicit TamperEnv(ByzantineReplica& owner) : owner_(owner) {}

  void attach(runtime::Env& outer) { outer_ = &outer; }

  runtime::ProcessId self() const override { return outer_->self(); }
  runtime::TimePoint now() const override { return outer_->now(); }

  void send(runtime::ProcessId to, Payload payload) override {
    try {
      if (peek_kind(payload.view()) == MsgKind::propose) {
        Propose proposal = decode<Propose>(payload.view());
        if (proposal.epoch == 0) {
          if (owner_.behavior_ == ByzantineBehavior::mute_leader) {
            ++owner_.tampered_;
            return;  // the proposal silently disappears
          }
          // Equivocate: append the destination id to every request payload,
          // so each follower sees a structurally valid but distinct batch
          // (and therefore a distinct value hash) for the same slot.
          Batch batch = Batch::decode(proposal.value);
          for (Request& request : batch.requests) {
            Writer w;
            w.raw(request.payload);
            w.u32(to);
            request.payload = std::move(w).take();
          }
          proposal.value = batch.encode();
          ++owner_.tampered_;
          outer_->send(to, encode(proposal));
          return;
        }
      }
    } catch (const DecodeError&) {
      // Unparseable traffic (application pushes etc.): pass through.
    }
    outer_->send(to, std::move(payload));
  }

  std::uint64_t set_timer(runtime::Duration delay) override {
    return outer_->set_timer(delay);
  }
  void cancel_timer(std::uint64_t id) override { outer_->cancel_timer(id); }
  void submit_work(runtime::Duration cost_hint, std::function<Bytes()> work,
                   std::function<void(Bytes)> done) override {
    outer_->submit_work(cost_hint, std::move(work), std::move(done));
  }
  void charge_cpu(runtime::Duration cost) override { outer_->charge_cpu(cost); }
  Rng& rng() override { return outer_->rng(); }

 private:
  ByzantineReplica& owner_;
  runtime::Env* outer_ = nullptr;
};

ByzantineReplica::ByzantineReplica(Replica& inner, ByzantineBehavior behavior)
    : inner_(inner),
      behavior_(behavior),
      tamper_(std::make_unique<TamperEnv>(*this)) {}

ByzantineReplica::~ByzantineReplica() = default;

void ByzantineReplica::on_start(runtime::Env& env) {
  Actor::on_start(env);
  tamper_->attach(env);
  inner_.on_start(*tamper_);
}

runtime::Verified ByzantineReplica::prologue(runtime::ProcessId from,
                                             Payload payload) const {
  return inner_.prologue(from, std::move(payload));
}

void ByzantineReplica::consume(runtime::Verified&& verified) {
  inner_.consume(std::move(verified));
}

void ByzantineReplica::on_timer(std::uint64_t timer_id) {
  inner_.on_timer(timer_id);
}

void ByzantineReplica::on_recover() { inner_.on_recover(); }

}  // namespace bft::smr
