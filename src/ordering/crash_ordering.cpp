#include "ordering/crash_ordering.hpp"

#include "smr/wire.hpp"

namespace bft::ordering {

namespace {

// Wire kinds beyond the BFT set (smr::MsgKind ends at smr::kLastMsgKind).
constexpr std::uint8_t kAppend = 20;
constexpr std::uint8_t kAck = 21;
constexpr std::uint8_t kCommit = 22;
static_assert(kAppend > static_cast<std::uint8_t>(smr::kLastMsgKind),
              "crash-ordering kinds must not collide with smr::MsgKind");

Bytes encode_append(std::uint64_t seq, ByteView envelope) {
  Writer w(envelope.size() + 16);
  w.u8(kAppend);
  w.u64(seq);
  w.bytes(envelope);
  return std::move(w).take();
}

Bytes encode_ack(std::uint64_t seq) {
  Writer w;
  w.u8(kAck);
  w.u64(seq);
  return std::move(w).take();
}

Bytes encode_commit(std::uint64_t upto) {
  Writer w;
  w.u8(kCommit);
  w.u64(upto);
  return std::move(w).take();
}

}  // namespace

CrashOrderingNode::CrashOrderingNode(runtime::ProcessId self,
                                     CrashOrderingOptions options,
                                     std::shared_ptr<BlockSigner> signer)
    : self_(self),
      options_(std::move(options)),
      signer_(std::move(signer)),
      cutter_(options_.block_size),
      previous_header_hash_(ledger::genesis_hash(options_.channel)) {
  if (options_.nodes.empty()) {
    throw std::invalid_argument("CrashOrderingNode: empty node list");
  }
  if (signer_ == nullptr) {
    throw std::invalid_argument("CrashOrderingNode: null signer");
  }
}

bool CrashOrderingNode::is_primary() const {
  return self_ == options_.nodes.front();
}

void CrashOrderingNode::on_start(runtime::Env& env) { Actor::on_start(env); }

void CrashOrderingNode::on_message(runtime::ProcessId from, ByteView payload) {
  if (payload.empty()) return;
  try {
    switch (payload[0]) {
      case static_cast<std::uint8_t>(smr::MsgKind::request):
        if (is_primary()) handle_request(payload);
        break;
      case static_cast<std::uint8_t>(smr::MsgKind::register_receiver):
        receivers_.insert(from);
        break;
      case kAppend:
        handle_append(from, payload);
        break;
      case kAck:
        if (is_primary()) handle_ack(from, payload);
        break;
      case kCommit:
        if (!is_primary() && from == options_.nodes.front()) {
          handle_commit(payload);
        }
        break;
      default:
        break;
    }
  } catch (const DecodeError&) {
    // Baseline trusts its peers not to be Byzantine; malformed -> drop.
  }
}

void CrashOrderingNode::handle_request(ByteView payload) {
  const smr::Request request = smr::decode<smr::Request>(payload);
  // Frontends wrap envelopes in OrderedPayload; this single-channel
  // baseline ignores markers and stores the inner envelope.
  Bytes envelope;
  try {
    OrderedPayload op = OrderedPayload::decode(request.payload);
    if (op.kind != OrderedPayload::Kind::envelope) return;
    envelope = std::move(op.envelope);
  } catch (const DecodeError&) {
    envelope = request.payload;  // raw submission
  }
  env().charge_cpu(kPerEnvelopeCost);
  const std::uint64_t seq = next_seq_++;
  const Payload append = Payload(encode_append(seq, envelope));
  log_[seq] = std::move(envelope);
  acks_[seq].insert(self_);
  for (runtime::ProcessId node : options_.nodes) {
    if (node != self_) env().send(node, append);
  }
  if (acks_[seq].size() >= majority()) advance_commit(seq);  // n == 1
}

void CrashOrderingNode::handle_append(runtime::ProcessId from, ByteView payload) {
  if (from != options_.nodes.front() || is_primary()) return;
  Reader r(payload);
  r.u8();
  const std::uint64_t seq = r.u64();
  Bytes envelope = r.bytes();
  r.expect_done();
  env().charge_cpu(kPerEnvelopeCost);
  log_[seq] = std::move(envelope);
  env().send(from, encode_ack(seq));
}

void CrashOrderingNode::handle_ack(runtime::ProcessId from, ByteView payload) {
  Reader r(payload);
  r.u8();
  const std::uint64_t seq = r.u64();
  r.expect_done();
  auto& voters = acks_[seq];
  voters.insert(from);
  if (voters.size() >= majority() && seq > commit_watermark_) {
    // Commit the longest contiguous acknowledged prefix.
    std::uint64_t upto = commit_watermark_;
    while (true) {
      const auto it = acks_.find(upto + 1);
      if (it == acks_.end() || it->second.size() < majority()) break;
      ++upto;
    }
    if (upto > commit_watermark_) {
      advance_commit(upto);
      const Payload commit = Payload(encode_commit(upto));
      for (runtime::ProcessId node : options_.nodes) {
        if (node != self_) env().send(node, commit);
      }
    }
  }
}

void CrashOrderingNode::handle_commit(ByteView payload) {
  Reader r(payload);
  r.u8();
  const std::uint64_t upto = r.u64();
  r.expect_done();
  advance_commit(upto);
}

void CrashOrderingNode::advance_commit(std::uint64_t upto) {
  if (upto > commit_watermark_) commit_watermark_ = upto;
  while (committed_ < commit_watermark_) {
    const auto it = log_.find(committed_ + 1);
    if (it == log_.end()) break;  // backup missing an append; wait
    ++committed_;
    apply(committed_, std::move(it->second));
    log_.erase(it);
    acks_.erase(committed_);
  }
}

void CrashOrderingNode::apply(std::uint64_t seq, Bytes envelope) {
  (void)seq;
  auto full = cutter_.add(std::move(envelope));
  if (full.has_value()) emit_block(std::move(*full));
}

void CrashOrderingNode::emit_block(std::vector<Bytes> envelopes) {
  ledger::Block block = ledger::make_block(
      next_block_number_++, previous_header_hash_, std::move(envelopes));
  previous_header_hash_ = block.header.digest();
  const crypto::Hash256 digest = block.header.digest();
  const BlockSigner* signer = signer_.get();
  env().submit_work(
      signer->cost_hint(),
      [signer, digest] { return signer->sign(digest); },
      [this, block = std::move(block)](Bytes signature) mutable {
        const SignedBlock sb{options_.channel, std::move(block),
                             std::move(signature)};
        const Payload push = Payload(smr::encode_push(sb.encode()));
        for (runtime::ProcessId receiver : receivers_) {
          env().send(receiver, push);
        }
      });
}

}  // namespace bft::ordering
