// State transfer for laggards and joining nodes (§5.2): every member answers
// with its last checkpoint and the decided log after it, streamed as acked
// StateChunks when large. The requester adopts the longest decided prefix
// that f+1 members vouch for; replies from non-members are dropped.
//
// StateTransfer owns the stall detector, the request/retry cycle, both ends
// of the chunk streams and the collected replies; Replica::adopt_state
// installs what they assemble.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "smr/config.hpp"
#include "smr/wire.hpp"

namespace bft::smr {

class Replica;

/// f+1 assembly: groups `replies` by snapshot, extends each group of at least
/// `needed` replies by every next log entry that `needed` of them agree on,
/// and returns the state of the group reaching furthest, if that passes
/// `confirmed`: its snapshot, the agreed log and the group's highest epoch.
std::optional<StateReply> assemble_state(
    const std::map<runtime::ProcessId, StateReply>& replies,
    std::uint32_t needed, ConsensusId confirmed);

/// Sending ends of the chunk streams, one per peer: each keeps its encoded
/// reply and slices a fragment per send, at most kStateChunkWindow unacked.
class ChunkSender {
 public:
  /// Streams `encoded` to `to` under a fresh transfer id, abandoning any
  /// stream still in flight to `to`.
  void start(runtime::ProcessId to, Bytes encoded);
  /// The next fragment for `to`, if one is left and the window has room.
  std::optional<StateChunk> next(runtime::ProcessId to);
  /// Marks a sent fragment of the stream to `from` acked (the stream ends
  /// once every fragment is); true only for the first ack of a sent fragment.
  bool ack(runtime::ProcessId from, const StateChunkAck& ack);

 private:
  struct Stream {
    std::uint64_t id = 0;
    Bytes encoded;
    std::uint32_t total = 0;
    std::uint32_t sent = 0;
    std::uint32_t acked = 0;     // distinct fragments acked
    std::vector<bool> is_acked;  // by fragment index
  };
  std::map<runtime::ProcessId, Stream> streams_;
  std::uint64_t next_id_ = 1;
};

/// Receiving ends of the chunk streams, one per peer.
class ChunkReceiver {
 public:
  enum class Fragment { rejected, duplicate, stored, completed };
  /// Files `chunk` into the stream from `from`, restarting it on a new
  /// transfer id or total.
  Fragment add(runtime::ProcessId from, const StateChunk& chunk);
  /// The reply whose stream `add` just completed; forgets the stream.
  Bytes take(runtime::ProcessId from);
  void clear() { streams_.clear(); }

 private:
  struct Stream {
    std::uint64_t id = 0;
    std::uint32_t received = 0;
    std::vector<Bytes> parts;
  };
  std::map<runtime::ProcessId, Stream> streams_;
};

class StateTransfer {
 public:
  StateTransfer(Replica& replica, const ReplicaParams& params,
                obs::MetricsRegistry& metrics);

  bool in_progress() const { return transferring_; }
  /// Traffic for slot `cid` arms the stall detector (once): a confirmed
  /// cursor still unmoved at its expiry means we missed decisions.
  void note_future_traffic(ConsensusId cid);
  /// Asks every member for state; no-op while a transfer runs.
  void begin();
  /// Stops collecting replies, drops partial streams, cancels the retry.
  void end();
  /// Sends `reply` whole if it fits in kStateChunkBytes, else as a stream.
  void send_reply(runtime::ProcessId to, const StateReply& reply);
  void handle_reply(runtime::ProcessId from, StateReply msg);
  void handle_chunk(runtime::ProcessId from, const StateChunk& msg);
  void handle_chunk_ack(runtime::ProcessId from, const StateChunkAck& msg);
  /// True when `timer_id` was the stall detector or the retry timer.
  bool on_timer(std::uint64_t timer_id);
  void on_recover();

 private:
  /// Only members vouch for state, and only while we collect it.
  bool collects_from(runtime::ProcessId from) const;
  /// Restarts a running transfer, or lets a learner poll again.
  void resume();
  void try_assemble();
  void send_chunk(runtime::ProcessId to, const StateChunk& chunk);

  Replica& replica_;
  const ReplicaParams& params_;
  obs::Counter& transfers_;
  obs::Counter& chunks_sent_;
  obs::Counter& chunks_received_;

  std::uint64_t stall_timer_ = 0;
  ConsensusId stall_anchor_ = 0;
  bool transferring_ = false;
  std::uint64_t retry_timer_ = 0;
  std::map<runtime::ProcessId, StateReply> replies_;
  ChunkSender chunks_out_;
  ChunkReceiver chunks_in_;
};

}  // namespace bft::smr
