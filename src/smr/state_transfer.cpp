#include "smr/state_transfer.hpp"

#include <algorithm>

#include "smr/replica.hpp"

namespace bft::smr {

using runtime::ProcessId;

std::optional<StateReply> assemble_state(
    const std::map<ProcessId, StateReply>& replies, std::uint32_t needed,
    ConsensusId confirmed) {
  // A snapshot, and every log entry adopted on top of it, must be vouched by
  // `needed` distinct replies.
  std::map<std::pair<ValueHash, ConsensusId>, std::vector<const StateReply*>>
      groups;
  for (const auto& entry : replies) {
    const StateReply& reply = entry.second;
    groups[{consensus::value_hash(reply.snapshot), reply.snapshot_cid}]
        .push_back(&reply);
  }

  std::optional<StateReply> best;
  ConsensusId best_covered = confirmed;
  for (const auto& [key, group] : groups) {
    if (group.size() < needed) continue;
    std::vector<LogEntry> agreed;
    ConsensusId cid = key.second;
    for (;; ++cid) {
      // Tally the values the group reports for slot cid + 1.
      std::map<ValueHash, std::pair<std::uint32_t, const Bytes*>> votes;
      for (const StateReply* reply : group) {
        const auto it = std::find_if(
            reply->log.begin(), reply->log.end(),
            [&](const LogEntry& e) { return e.cid == cid + 1; });
        if (it == reply->log.end()) continue;
        auto& vote = votes[consensus::value_hash(it->value)];
        ++vote.first;
        vote.second = &it->value;
      }
      const auto winner = std::find_if(
          votes.begin(), votes.end(),
          [&](const auto& vote) { return vote.second.first >= needed; });
      if (winner == votes.end()) break;
      agreed.push_back(LogEntry{cid + 1, *winner->second.second});
    }
    if (cid <= best_covered) continue;
    best_covered = cid;
    Epoch epoch = 0;
    for (const StateReply* reply : group) epoch = std::max(epoch, reply->epoch);
    best = StateReply{key.second, group.front()->snapshot, std::move(agreed),
                      epoch};
  }
  return best;
}

void ChunkSender::start(ProcessId to, Bytes encoded) {
  const auto total = static_cast<std::uint32_t>(
      (encoded.size() + kStateChunkBytes - 1) / kStateChunkBytes);
  streams_[to] = Stream{next_id_++, std::move(encoded), total, 0, 0,
                        std::vector<bool>(total, false)};
}

std::optional<StateChunk> ChunkSender::next(ProcessId to) {
  const auto it = streams_.find(to);
  if (it == streams_.end()) return std::nullopt;
  Stream& s = it->second;
  if (s.sent >= s.total || s.sent >= s.acked + kStateChunkWindow) {
    return std::nullopt;
  }
  const std::size_t off = std::size_t{s.sent} * kStateChunkBytes;
  const std::size_t len = std::min(kStateChunkBytes, s.encoded.size() - off);
  const auto first = s.encoded.begin() + static_cast<std::ptrdiff_t>(off);
  return StateChunk{s.id, s.sent++, s.total,
                    Bytes(first, first + static_cast<std::ptrdiff_t>(len))};
}

bool ChunkSender::ack(ProcessId from, const StateChunkAck& ack) {
  const auto it = streams_.find(from);
  if (it == streams_.end()) return false;
  Stream& s = it->second;
  if (s.id != ack.transfer_id || ack.index >= s.sent || s.is_acked[ack.index]) {
    return false;
  }
  s.is_acked[ack.index] = true;
  if (++s.acked == s.total) streams_.erase(it);
  return true;
}

ChunkReceiver::Fragment ChunkReceiver::add(ProcessId from,
                                           const StateChunk& chunk) {
  // A Byzantine sender controls `total`; bound what one peer can make us
  // buffer before the reassembled reply would be decoded (and dropped) anyway.
  constexpr std::uint32_t kMaxChunksPerTransfer = 1u << 16;
  if (chunk.total == 0 || chunk.total > kMaxChunksPerTransfer ||
      chunk.index >= chunk.total) {
    return Fragment::rejected;
  }
  Stream& s = streams_[from];
  if (s.id != chunk.transfer_id || s.parts.size() != chunk.total) {
    s = Stream{chunk.transfer_id, 0, std::vector<Bytes>(chunk.total)};
  }
  if (!s.parts[chunk.index].empty()) return Fragment::duplicate;
  s.parts[chunk.index] = chunk.data;
  return ++s.received < s.parts.size() ? Fragment::stored
                                       : Fragment::completed;
}

Bytes ChunkReceiver::take(ProcessId from) {
  const auto it = streams_.find(from);
  std::size_t size = 0;
  for (const Bytes& part : it->second.parts) size += part.size();
  Bytes full;
  full.reserve(size);
  for (const Bytes& part : it->second.parts) append(full, part);
  streams_.erase(it);
  return full;
}

StateTransfer::StateTransfer(Replica& replica, const ReplicaParams& params,
                             obs::MetricsRegistry& metrics)
    : replica_(replica),
      params_(params),
      transfers_(
          metrics.counter("smr.state_transfers", "state transfers started")),
      chunks_sent_(metrics.counter("smr.state_chunks_sent",
                                   "StateReply fragments streamed to peers")),
      chunks_received_(metrics.counter("smr.state_chunks_received",
                                       "StateReply fragments reassembled")) {}

void StateTransfer::note_future_traffic(ConsensusId cid) {
  const ConsensusId confirmed = replica_.last_confirmed();
  if (cid <= confirmed || transferring_ || stall_timer_ != 0) return;
  stall_anchor_ = confirmed;
  stall_timer_ = replica_.runtime_env().set_timer(params_.stall_timeout);
}

void StateTransfer::begin() {
  if (transferring_) return;
  transferring_ = true;
  transfers_.add();
  runtime::Env& env = replica_.runtime_env();
  for (ProcessId member : replica_.config().members()) {
    if (member != replica_.self_id()) {
      env.send(member, encode(StateRequest{replica_.last_confirmed()}));
    }
  }
  if (retry_timer_ != 0) env.cancel_timer(retry_timer_);
  retry_timer_ = env.set_timer(params_.state_transfer_retry);
}

void StateTransfer::end() {
  transferring_ = false;
  replies_.clear();
  chunks_in_.clear();
  if (retry_timer_ != 0) replica_.runtime_env().cancel_timer(retry_timer_);
  retry_timer_ = 0;
}

void StateTransfer::resume() {
  if (transferring_ || !replica_.is_active_member()) {
    end();
    begin();
  }
}

void StateTransfer::send_reply(ProcessId to, const StateReply& reply) {
  Bytes encoded = encode(reply);
  if (encoded.size() <= kStateChunkBytes) {
    replica_.runtime_env().send(to, std::move(encoded));
    return;
  }
  // Stream it with a bounded window so a bulk checkpoint cannot monopolize
  // the link to `to`.
  chunks_out_.start(to, std::move(encoded));
  while (const auto chunk = chunks_out_.next(to)) send_chunk(to, *chunk);
}

void StateTransfer::send_chunk(ProcessId to, const StateChunk& chunk) {
  replica_.runtime_env().send(to, encode(chunk));
  chunks_sent_.add();
}

void StateTransfer::handle_chunk_ack(ProcessId from, const StateChunkAck& msg) {
  if (!chunks_out_.ack(from, msg)) return;
  if (const auto chunk = chunks_out_.next(from)) send_chunk(from, *chunk);
}

bool StateTransfer::collects_from(ProcessId from) const {
  return transferring_ && from != replica_.self_id() &&
         replica_.config().contains(from);
}

void StateTransfer::handle_chunk(ProcessId from, const StateChunk& msg) {
  if (!collects_from(from)) return;
  const ChunkReceiver::Fragment fragment = chunks_in_.add(from, msg);
  if (fragment == ChunkReceiver::Fragment::rejected) return;
  if (fragment != ChunkReceiver::Fragment::duplicate) chunks_received_.add();
  replica_.runtime_env().send(
      from, encode(StateChunkAck{msg.transfer_id, msg.index}));
  if (fragment != ChunkReceiver::Fragment::completed) return;
  // A reassembled reply that does not decode is dropped as malformed.
  handle_reply(from, decode<StateReply>(chunks_in_.take(from)));
}

void StateTransfer::handle_reply(ProcessId from, StateReply msg) {
  if (!collects_from(from)) return;
  replies_[from] = std::move(msg);
  try_assemble();
}

void StateTransfer::try_assemble() {
  const ClusterConfig& config = replica_.config();
  const std::uint32_t needed = config.quorums().count_f_plus_1();
  if (replies_.size() < needed) return;
  std::optional<StateReply> state =
      assemble_state(replies_, needed, replica_.last_confirmed());
  if (state.has_value()) {
    replica_.adopt_state(std::move(*state));
    if (!replica_.is_active_member()) {
      // Still a learner: keep polling until a reconfiguration admits us.
      retry_timer_ =
          replica_.runtime_env().set_timer(params_.state_transfer_retry);
    }
    return;
  }
  // Nothing advances us. If every member answered, the transfer was
  // spurious; cancel it so proposing is not blocked forever.
  if (replies_.size() + 1 >= config.n() && replica_.is_active_member()) {
    end();
    replica_.maybe_propose();
  }
}

bool StateTransfer::on_timer(std::uint64_t timer_id) {
  if (timer_id == stall_timer_) {
    stall_timer_ = 0;
    if (transferring_ || !replica_.is_active_member()) return true;
    if (replica_.last_confirmed() == stall_anchor_) {
      begin();  // others moved on while our next slot stayed undecided
    } else {
      // We progressed; keep watching while we still trail slots with known
      // traffic (it may already have dried up).
      note_future_traffic(replica_.highest_instance());
    }
    return true;
  }
  if (timer_id != retry_timer_) return false;
  retry_timer_ = 0;
  resume();
  return true;
}

void StateTransfer::on_recover() {
  // Both timers died with the crash, and so did the reply collection.
  stall_timer_ = 0;
  retry_timer_ = 0;
  resume();
}

}  // namespace bft::smr
