#include "smr/client.hpp"

#include "crypto/sha256.hpp"

namespace bft::smr {

Client::Client(ClusterConfig config) : Client(std::move(config), Params{}) {}

Client::Client(ClusterConfig config, Params params)
    : config_(std::move(config)), params_(params) {}

void Client::on_start(runtime::Env& env) { Actor::on_start(env); }

consensus::Weight Client::reply_threshold() const {
  const auto& q = config_.quorums();
  return params_.tentative ? q.quorum_weight() : q.evidence_weight();
}

void Client::send_to_all(const Bytes& encoded) {
  const Payload shared = Payload(encoded);  // one allocation for the fan-out
  for (runtime::ProcessId member : config_.members()) {
    env().send(member, shared);
  }
}

std::uint64_t Client::invoke(Bytes payload, ReplyCallback callback,
                             RequestKind kind) {
  Request request;
  request.client = env().self();
  request.seq = next_seq_++;
  request.kind = kind;
  request.payload = std::move(payload);

  Outstanding entry;
  entry.encoded_request = encode(request);
  entry.callback = std::move(callback);
  send_to_all(entry.encoded_request);
  outstanding_.emplace(request.seq, std::move(entry));

  if (resend_timer_ == 0) {
    resend_timer_ = env().set_timer(params_.resend_timeout);
  }
  return request.seq;
}

std::uint64_t Client::invoke_async(Bytes payload, RequestKind kind) {
  Request request;
  request.client = env().self();
  request.seq = next_seq_++;
  request.kind = kind;
  request.payload = std::move(payload);
  send_to_all(encode(request));
  return request.seq;
}

void Client::on_message(runtime::ProcessId from, ByteView payload) {
  try {
    if (peek_kind(payload) != MsgKind::reply) return;
    const Reply reply = decode<Reply>(payload);
    const auto it = outstanding_.find(reply.client_seq);
    if (it == outstanding_.end()) return;
    if (!config_.contains(from)) return;

    const std::string digest =
        crypto::hash_hex(crypto::sha256(reply.payload));
    auto& [senders, stored] = it->second.replies[digest];
    if (stored.empty() && !reply.payload.empty()) stored = reply.payload;
    senders.insert(from);

    std::set<consensus::ReplicaId> indices;
    for (runtime::ProcessId p : senders) indices.insert(config_.index_of(p));
    if (config_.quorums().weight_of_set(indices) >= reply_threshold()) {
      ReplyCallback callback = std::move(it->second.callback);
      Bytes result = stored;
      outstanding_.erase(it);
      ++completed_;
      if (callback) callback(reply.client_seq, std::move(result));
    }
  } catch (const DecodeError&) {
    // Malformed reply: ignore the sender's vote.
  }
}

void Client::on_timer(std::uint64_t timer_id) {
  if (timer_id != resend_timer_) return;
  resend_timer_ = 0;
  if (outstanding_.empty()) return;
  for (const auto& [seq, entry] : outstanding_) {
    (void)seq;
    send_to_all(entry.encoded_request);
  }
  resend_timer_ = env().set_timer(params_.resend_timeout);
}

}  // namespace bft::smr
