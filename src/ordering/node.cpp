#include "ordering/node.hpp"

#include "ledger/chain.hpp"

namespace bft::ordering {

Bytes SignedBlock::encode() const {
  Writer w;
  w.str(channel);
  w.bytes(block.encode());
  w.bytes(signature);
  return std::move(w).take();
}

SignedBlock SignedBlock::decode(ByteView data) {
  Reader r(data);
  SignedBlock sb;
  sb.channel = r.str();
  sb.block = ledger::Block::decode(r.bytes());
  sb.signature = r.bytes();
  r.expect_done();
  return sb;
}

Bytes OrderedPayload::encode() const {
  Writer w(envelope.size() + channel.size() + 24);
  w.u8(static_cast<std::uint8_t>(kind));
  w.str(channel);
  if (kind == Kind::envelope) {
    w.bytes(envelope);
  } else {
    w.u64(cut_block_number);
  }
  return std::move(w).take();
}

OrderedPayload OrderedPayload::decode(ByteView data) {
  Reader r(data);
  OrderedPayload p;
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw DecodeError("bad ordered-payload kind");
  p.kind = static_cast<Kind>(kind);
  p.channel = r.str();
  if (p.channel.empty() || p.channel.size() > 255) {
    throw DecodeError("invalid channel name");
  }
  if (p.kind == Kind::envelope) {
    p.envelope = r.bytes();
  } else {
    p.cut_block_number = r.u64();
  }
  r.expect_done();
  return p;
}

OrderingNode::Instruments::Instruments(obs::MetricsRegistry& reg)
    : envelopes_ordered(reg.counter("ordering.envelopes_ordered",
                                    "envelopes through execute()")),
      blocks_cut(reg.counter("ordering.blocks_cut",
                             "blocks emitted (including replayed cuts)")),
      blocks_signed(
          reg.counter("ordering.blocks_signed", "signing jobs completed")),
      cut_markers(
          reg.counter("ordering.cut_markers", "time-to-cut markers submitted")),
      pending_envelopes(reg.gauge("ordering.pending_envelopes",
                                  "envelopes waiting in blockcutters")),
      block_fill(reg.histogram("ordering.block_fill", "envelopes",
                               "envelopes per block")),
      sign_latency(reg.histogram("ordering.sign_ns", "ns",
                                 "signer-pool queue + signing latency")) {}

OrderingNode::OrderingNode(OrderingNodeOptions options,
                           std::shared_ptr<BlockSigner> signer)
    : options_(std::move(options)),
      signer_(std::move(signer)),
      metrics_(options_.metrics),
      m_(*metrics_) {
  if (signer_ == nullptr) {
    throw std::invalid_argument("OrderingNode: null signer");
  }
  if (options_.block_size == 0) {
    throw std::invalid_argument("OrderingNode: zero block size");
  }
}

OrderingNode::ChannelState& OrderingNode::channel_state(const std::string& name) {
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(name, options_.block_size))
             .first;
  }
  return it->second;
}

Bytes OrderingNode::execute(const smr::Request& request,
                            const smr::ExecutionContext& ctx) {
  (void)ctx;
  if (replica_ == nullptr) {
    throw std::logic_error("OrderingNode: attach() was not called");
  }
  replica_->runtime_env().charge_cpu(kPerEnvelopeCost);

  OrderedPayload payload;
  try {
    payload = OrderedPayload::decode(request.payload);
  } catch (const DecodeError&) {
    return {};  // a client ordered garbage: recorded by consensus, not cut
  }

  ChannelState& state = channel_state(payload.channel);
  if (payload.kind == OrderedPayload::Kind::envelope) {
    ++envelopes_ordered_;
    m_.envelopes_ordered.add();
    if (options_.trace != nullptr) {
      state.trace_keys.emplace_back(request.client, request.seq);
    }
    auto full = state.cutter.add(std::move(payload.envelope));
    if (full.has_value()) {
      cutting_by_size_ = true;
      emit_block(payload.channel, state, std::move(*full));
    } else if (!replica_->replaying_history()) {
      arm_batch_timer();
    }
  } else {
    // Time-to-cut marker: only effective if the block it targeted has not
    // been cut yet (identical decision at every replica).
    if (payload.cut_block_number == state.next_block_number &&
        state.cutter.pending_count() > 0) {
      cutting_by_size_ = false;
      emit_block(payload.channel, state, state.cutter.cut());
    }
  }
  m_.pending_envelopes.set(static_cast<std::int64_t>(pending_total()));
  return {};
}

OrderingNode::TraceKeys OrderingNode::take_trace_keys(ChannelState& state) {
  TraceKeys keys(state.trace_keys.begin(), state.trace_keys.end());
  state.trace_keys.clear();
  return keys;
}

void OrderingNode::emit_block(const std::string& channel, ChannelState& state,
                              std::vector<Bytes> envelopes) {
  // The node thread builds the header sequentially (deterministic across
  // replicas); only signing and sending go to the worker pool (§5.1).
  const std::size_t fill = envelopes.size();
  ledger::Block block = ledger::make_block(
      state.next_block_number++, state.previous_header_hash,
      std::move(envelopes));
  state.previous_header_hash = block.header.digest();
  ++blocks_created_;
  m_.blocks_cut.add();
  m_.block_fill.record(static_cast<std::int64_t>(fill));

  state.recent_blocks.push_back(block);
  while (state.recent_blocks.size() > kPushCacheBlocks) {
    state.recent_blocks.pop_front();
  }

  TraceKeys keys;
  if (options_.trace != nullptr) keys = take_trace_keys(state);

  if (replica_->replaying_history()) return;  // state rebuilt, no side effects
  if (options_.trace != nullptr) {
    const auto now = replica_->runtime_env().now();
    const auto self = replica_->self_id();
    for (const auto& [client, seq] : keys) {
      options_.trace->record(obs::TraceStage::kBlockcut, now, self, client, seq,
                             block.header.number);
    }
  }
  sign_and_push(channel, std::move(block), std::move(keys));
}

void OrderingNode::sign_and_push(std::string channel, ledger::Block block,
                                 TraceKeys keys,
                                 std::optional<runtime::ProcessId> to) {
  const crypto::Hash256 digest = block.header.digest();
  const std::uint64_t number = block.header.number;
  const BlockSigner* signer = signer_.get();
  const runtime::Duration cost =
      signer->cost_hint() * (options_.double_sign ? 2 : 1);
  smr::Replica* replica = replica_;
  const runtime::TimePoint sign_submit_at = replica_->runtime_env().now();
  if (options_.trace != nullptr) {
    // "sign" marks the job entering the signer pool; the matching "push"
    // fires when the signature lands, so sign→push measures queueing plus
    // signing — the §6.2 contention quantity.
    const auto self = replica_->self_id();
    for (const auto& [client, seq] : keys) {
      options_.trace->record(obs::TraceStage::kSign, sign_submit_at, self,
                             client, seq, number);
    }
  }
  replica_->runtime_env().submit_work(
      cost,
      [signer, digest, double_sign = options_.double_sign] {
        Bytes signature = signer->sign(digest);
        if (double_sign) {
          // The second signature binds the block to an execution context;
          // its bytes are irrelevant here, only its CPU cost matters.
          (void)signer->sign(crypto::sha256(signature));
        }
        return signature;
      },
      [this, replica, number, sign_submit_at, to, keys = std::move(keys),
       channel = std::move(channel),
       block = std::move(block)](Bytes signature) mutable {
        const runtime::TimePoint now = replica->runtime_env().now();
        m_.blocks_signed.add();
        m_.sign_latency.record(now - sign_submit_at);
        if (options_.trace != nullptr) {
          const auto self = replica->self_id();
          for (const auto& [client, seq] : keys) {
            options_.trace->record(obs::TraceStage::kPush, now, self, client,
                                   seq, number);
          }
          // Block-granularity push event so delivery can be paired even for
          // envelopes whose keys this trace never saw (see kBlockTraceClient).
          options_.trace->record(obs::TraceStage::kPush, now, self,
                                 obs::kBlockTraceClient, number, number);
        }
        const SignedBlock sb{std::move(channel), std::move(block),
                             std::move(signature)};
        if (to.has_value()) {
          replica->send_push(*to, sb.encode());
        } else {
          replica->push_to_receivers(sb.encode());
        }
      });
}

void OrderingNode::on_state_installed() {
  // A state transfer may have skipped past blocks this node never pushed
  // (snapshot contents and replayed history produce no side effects), yet
  // frontends need matching copies from a quorum of nodes to deliver.
  // Re-announce the cached window with our own signature; frontends ignore
  // numbers they already delivered.
  reannounce(std::nullopt);
}

void OrderingNode::on_receiver_registered(smr::Replica&,
                                          runtime::ProcessId receiver) {
  // A receiver that registers after blocks were cut (it started late, or its
  // registration frame was delayed) missed their pushes and may never reach
  // a delivery quorum for them. Send it the cached window, and only it.
  reannounce(receiver);
}

void OrderingNode::reannounce(std::optional<runtime::ProcessId> to) {
  for (const auto& [name, state] : channels_) {
    for (const ledger::Block& block : state.recent_blocks) {
      sign_and_push(name, block, {}, to);
    }
  }
}

void OrderingNode::arm_batch_timer() {
  if (options_.batch_timeout <= 0 || batch_timer_armed_) return;
  batch_timer_armed_ = true;
  replica_->set_app_timer(options_.batch_timeout);
}

void OrderingNode::on_recover() {
  // The batch-timeout timer died with the crash; re-arm it if envelopes are
  // still waiting in any cutter, otherwise partial blocks would never cut.
  batch_timer_armed_ = false;
  if (pending_total() > 0) arm_batch_timer();
}

void OrderingNode::on_app_timer(std::uint64_t token) {
  (void)token;
  batch_timer_armed_ = false;
  send_cut_markers();
}

void OrderingNode::send_cut_markers() {
  // Ask the cluster to order a cut for every channel with pending envelopes.
  // The marker travels through consensus like any request, so all replicas
  // cut at the same stream position. Duplicate/stale markers are no-ops.
  bool any_pending = false;
  for (auto& [name, state] : channels_) {
    if (state.cutter.pending_count() == 0) continue;
    any_pending = true;
    state.cut_requested_for = state.next_block_number;
    OrderedPayload marker;
    marker.kind = OrderedPayload::Kind::time_to_cut;
    marker.channel = name;
    marker.cut_block_number = state.next_block_number;

    smr::Request request;
    request.client = replica_->self_id();
    const auto now =
        static_cast<std::uint64_t>(replica_->runtime_env().now());
    marker_seq_ = std::max(marker_seq_ + 1, now);
    request.seq = marker_seq_;
    request.payload = marker.encode();
    const Payload encoded = Payload(smr::encode(request));
    m_.cut_markers.add();
    for (runtime::ProcessId member : replica_->config().members()) {
      replica_->runtime_env().send(member, encoded);
    }
  }
  if (any_pending) arm_batch_timer();  // keep nudging until the cut lands
}

std::size_t OrderingNode::pending_in(const std::string& channel) const {
  const auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.cutter.pending_count();
}

std::size_t OrderingNode::pending_total() const {
  std::size_t total = 0;
  for (const auto& [name, state] : channels_) {
    (void)name;
    total += state.cutter.pending_count();
  }
  return total;
}

std::size_t OrderingNode::requests_to_next_output() const {
  if (!cutting_by_size_) return 1;  // a held envelope would only wait
  std::size_t backlog = 0;
  for (const auto& [name, state] : channels_) {
    (void)name;
    if (state.cut_requested_for == state.next_block_number) return 1;
    backlog = std::max(backlog, state.cutter.pending_count());
  }
  return options_.block_size - std::min(backlog, options_.block_size - 1);
}

std::vector<std::string> OrderingNode::channels() const {
  std::vector<std::string> out;
  out.reserve(channels_.size());
  for (const auto& [name, state] : channels_) {
    (void)state;
    out.push_back(name);
  }
  return out;
}

Bytes OrderingNode::snapshot() const {
  Writer w;
  w.u64(envelopes_ordered_);
  w.u64(blocks_created_);
  w.u32(static_cast<std::uint32_t>(channels_.size()));
  for (const auto& [name, state] : channels_) {
    w.str(name);
    w.u64(state.next_block_number);
    w.raw(ByteView(state.previous_header_hash.data(), 32));
    w.bytes(state.cutter.snapshot());
    // Block content is deterministic across replicas at a given stream
    // position, so including the cache keeps checkpoint digests comparable.
    w.u32(static_cast<std::uint32_t>(state.recent_blocks.size()));
    for (const ledger::Block& block : state.recent_blocks) {
      w.bytes(block.encode());
    }
  }
  return std::move(w).take();
}

void OrderingNode::restore(ByteView snapshot) {
  Reader r(snapshot);
  envelopes_ordered_ = r.u64();
  blocks_created_ = r.u64();
  channels_.clear();
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = r.str();
    ChannelState& state = channel_state(name);
    state.next_block_number = r.u64();
    state.previous_header_hash = crypto::hash_from_bytes(r.raw(32));
    state.cutter.restore(r.bytes());
    state.recent_blocks.clear();
    const std::uint32_t cached = r.u32();
    for (std::uint32_t b = 0; b < cached; ++b) {
      state.recent_blocks.push_back(ledger::Block::decode(r.bytes()));
    }
  }
  r.expect_done();
}

crypto::Hash256 OrderingNode::integrity_digest() const {
  // Digest exactly what a forked history would change: each channel's chain
  // head (next number + previous header hash). Cutter contents and the push
  // cache are reconstructed deterministically by replay, so pinning them
  // would only make the digest fragile, not safer.
  crypto::Sha256 h;
  for (const auto& [name, state] : channels_) {
    const crypto::Hash256 digest = ledger::chain_position_digest(
        name, state.next_block_number, state.previous_header_hash);
    h.update(ByteView(digest.data(), digest.size()));
  }
  return h.finish();
}

}  // namespace bft::ordering
