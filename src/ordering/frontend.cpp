#include "ordering/frontend.hpp"

#include "common/log.hpp"

namespace bft::ordering {

Frontend::Instruments::Instruments(obs::MetricsRegistry& reg)
    : submitted(
          reg.counter("frontend.submitted", "envelopes relayed to the cluster")),
      pushes_received(reg.counter("frontend.pushes_received",
                                  "block pushes received on our channel")),
      delivered_blocks(reg.counter("frontend.delivered_blocks",
                                   "blocks with delivery quorum")),
      delivered_envelopes(
          reg.counter("frontend.delivered_envelopes", "envelopes delivered")),
      submit_to_deliver(reg.histogram(
          "frontend.submit_to_deliver_ns", "ns",
          "submit to delivery quorum, own tracked envelopes only")) {}

Frontend::Frontend(smr::ClusterConfig cluster, FrontendOptions options,
                   BlockCallback on_block)
    : cluster_(std::move(cluster)),
      options_(std::move(options)),
      on_block_(std::move(on_block)),
      metrics_(options_.metrics),
      m_(*metrics_) {
  if (options_.verify_signatures && options_.verifier == nullptr) {
    throw std::invalid_argument("Frontend: verification requires a verifier");
  }
}

void Frontend::on_start(runtime::Env& env) {
  Actor::on_start(env);
  if (!options_.receive_blocks) return;
  const Payload registration = Payload(smr::encode(smr::RegisterReceiver{}));
  for (runtime::ProcessId node : cluster_.members()) {
    env.send(node, registration);
  }
}

void Frontend::submit(Bytes envelope) {
  smr::Request request;
  request.client = env().self();
  request.seq = next_seq_++;
  if (options_.track_latency) {
    inflight_[crypto::sha256(envelope)] = Inflight{env().now(), request.seq};
  }
  if (options_.trace != nullptr) {
    options_.trace->record(obs::TraceStage::kSubmit, env().now(), env().self(),
                           request.client, request.seq);
  }
  OrderedPayload payload;
  payload.channel = options_.channel;
  payload.envelope = std::move(envelope);
  request.payload = payload.encode();
  const Payload encoded = Payload(smr::encode(request));
  for (runtime::ProcessId node : cluster_.members()) {
    env().send(node, encoded);
  }
  ++submitted_;
  m_.submitted.add();
}

bool Frontend::quorum_reached(const Tally& tally) const {
  if (options_.required_copies > 0) {
    return tally.senders.size() >= options_.required_copies;
  }
  const auto& q = cluster_.quorums();
  if (options_.weighted_quorum) {
    std::set<consensus::ReplicaId> indices;
    for (runtime::ProcessId p : tally.senders) {
      if (cluster_.contains(p)) indices.insert(cluster_.index_of(p));
    }
    return q.weight_of_set(indices) >= q.quorum_weight();
  }
  const std::size_t needed =
      options_.verify_signatures ? q.count_f_plus_1() : q.count_2f_plus_1();
  return tally.senders.size() >= needed;
}

runtime::Verified Frontend::prologue(runtime::ProcessId from,
                                     Payload payload) const {
  runtime::Verified v;
  v.from = from;
  v.payload = std::move(payload);
  if (!options_.verify_signatures || !cluster_.contains(from)) {
    return v;  // consume() needs no verdict for this message
  }
  try {
    const ByteView view = v.payload.view();
    if (smr::peek_kind(view) != smr::MsgKind::push) return v;
    const SignedBlock sb =
        SignedBlock::decode(smr::decode<smr::Push>(view).payload);
    if (sb.channel != options_.channel) return v;
    v.auth = options_.verifier->verify(from, sb.block.header.digest(),
                                       sb.signature)
                 ? runtime::Verified::Auth::accepted
                 : runtime::Verified::Auth::rejected;
  } catch (const DecodeError&) {
    // Malformed: consume() re-decodes and emits the diagnostic.
  }
  return v;
}

void Frontend::consume(runtime::Verified&& verified) {
  const runtime::ProcessId from = verified.from;
  const ByteView payload = verified.payload.view();
  if (!cluster_.contains(from)) return;
  SignedBlock sb;
  try {
    if (smr::peek_kind(payload) != smr::MsgKind::push) return;
    sb = SignedBlock::decode(smr::decode<smr::Push>(payload).payload);
  } catch (const DecodeError&) {
    BFT_LOG(warn) << "frontend " << env().self() << ": malformed push from " << from;
    return;
  }

  if (sb.channel != options_.channel) return;  // another channel's chain
  m_.pushes_received.add();
  const std::uint64_t number = sb.block.header.number;
  if (number < next_delivery_number_) return;  // already delivered

  if (options_.verify_signatures &&
      verified.auth != runtime::Verified::Auth::accepted) {
    BFT_LOG(warn) << "frontend " << env().self() << ": bad block signature from "
                  << from;
    return;
  }

  Tally& tally = tallies_[number][crypto::sha256(sb.block.encode())];
  tally.senders.insert(from);
  if (!tally.has_block) {
    tally.block = std::move(sb.block);
    tally.has_block = true;
  }
  if (!quorum_reached(tally)) return;

  ledger::Block block = std::move(tally.block);
  tallies_.erase(number);

  ready_.emplace(number, std::move(block));
  while (!ready_.empty() && ready_.begin()->first == next_delivery_number_) {
    deliver(ready_.begin()->second);
    ready_.erase(ready_.begin());
    ++next_delivery_number_;
  }
}

void Frontend::deliver(const ledger::Block& block) {
  ++delivered_blocks_;
  delivered_envelopes_ += block.envelopes.size();
  last_delivery_ = env().now();
  m_.delivered_blocks.add();
  m_.delivered_envelopes.add(block.envelopes.size());
  if (options_.trace != nullptr) {
    // Block-granularity delivery event; pairs with the ordering node's push
    // via the block number in `detail` (see kBlockTraceClient).
    options_.trace->record(obs::TraceStage::kFrontendAccept, env().now(),
                           env().self(), obs::kBlockTraceClient,
                           block.header.number, block.header.number);
  }
  if (options_.track_latency) {
    for (const Bytes& envelope : block.envelopes) {
      const auto it = inflight_.find(crypto::sha256(envelope));
      if (it != inflight_.end()) {
        const std::int64_t delta = env().now() - it->second.at;
        latencies_.add(static_cast<double>(delta) / 1e6);
        m_.submit_to_deliver.record(delta);
        if (options_.trace != nullptr) {
          // Per-envelope delivery for envelopes this frontend submitted
          // itself: closes the submit→frontend_accept chain.
          options_.trace->record(obs::TraceStage::kFrontendAccept, env().now(),
                                 env().self(), env().self(), it->second.seq,
                                 block.header.number);
        }
        inflight_.erase(it);
      }
    }
  }
  if (on_block_) on_block_(block);
}

}  // namespace bft::ordering
