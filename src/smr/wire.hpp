// Wire messages exchanged by replicas, clients and receivers.
//
// Encodings are deterministic (common/serial.hpp), length-checked on decode,
// and versioned by a leading kind byte. Decode functions throw DecodeError on
// malformed input; replicas treat that as a Byzantine sender and drop.
#pragma once

#include <optional>
#include <vector>

#include "common/serial.hpp"
#include "consensus/instance.hpp"

namespace bft::smr {

using consensus::ConsensusId;
using consensus::Epoch;
using consensus::ReplicaId;
using consensus::ValueHash;
using consensus::WriteCertificate;

enum class MsgKind : std::uint8_t {
  request = 1,        // client -> replicas
  forward = 2,        // replica -> leader (timed-out request relay)
  propose = 3,        // leader -> replicas
  write = 4,          // replica -> replicas
  accept = 5,         // replica -> replicas
  stop = 6,           // synchronization phase trigger
  stopdata = 7,       // replica -> new leader
  sync = 8,           // new leader -> replicas
  reply = 9,          // replica -> client
  state_request = 10, // lagging replica -> replicas
  state_reply = 11,   // replica -> lagging replica
  value_request = 12, // decided-without-value recovery
  value_reply = 13,
  register_receiver = 14,  // receiver -> replicas (custom-replier audience)
  push = 15,               // replica -> receivers (application payload)
  state_chunk = 16,        // replica -> lagging replica (streamed reply)
  state_chunk_ack = 17,    // lagging replica -> replica (flow control)
};
/// The highest kind; tags above it are free for protocols sharing the wire.
constexpr MsgKind kLastMsgKind = MsgKind::state_chunk_ack;

/// Reads the kind byte without consuming the message.
MsgKind peek_kind(ByteView data);

/// Human-readable name of a message kind ("propose", "write", ...); returns
/// "unknown" for unregistered tags. Used by tracing, transport logging and
/// drop diagnostics.
const char* kind_name(MsgKind kind);

/// True when `kind` is a registered wire tag.
bool kind_known(MsgKind kind);

// --- tagged message codec ---
//
// Every wire message type T declares exactly one thing: its kind tag and how
// its body (de)serializes, via the Codec<T> specialization (wire.cpp gives
// each body one field list that serves both directions). The generic
// encode<T>/decode<T> below own the framing conventions — leading kind byte,
// full-consumption check, DecodeError on mismatch — so adding a message type
// is one specialization and one field list.

template <typename T>
struct Codec;  // specialized for every wire message type

/// Encodes `msg` with its leading kind byte.
template <typename T>
Bytes encode(const T& msg) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Codec<T>::kKind));
  Codec<T>::write_body(w, msg);
  return std::move(w).take();
}

/// Decodes a full message of type T; throws DecodeError on a wrong kind tag,
/// malformed body or trailing garbage.
template <typename T>
T decode(ByteView data) {
  Reader r(data);
  if (static_cast<MsgKind>(r.u8()) != Codec<T>::kKind) {
    throw DecodeError("unexpected message kind");
  }
  T msg = Codec<T>::read_body(r);
  r.expect_done();
  return msg;
}

/// Request kinds: ordinary application payloads vs. membership changes
/// executed by the SMR core itself (§5.2 reconfiguration).
enum class RequestKind : std::uint8_t { application = 0, reconfig = 1 };

struct Request {
  std::uint32_t client = 0;
  std::uint64_t seq = 0;
  RequestKind kind = RequestKind::application;
  Bytes payload;

  bool operator==(const Request& other) const;
};

/// A batch of requests: the value decided by one consensus instance.
struct Batch {
  std::vector<Request> requests;

  Bytes encode() const;
  static Batch decode(ByteView data);
};

// --- client traffic ---

/// A timed-out request relayed to the suspected-slow leader. Unlike client
/// requests (whose effects are vouched by the 2f+1/f+1 reply quorum), a
/// forward is trusted enough to enter the leader's batch pool directly, so it
/// carries the relaying replica's signature: otherwise one corrupted link
/// could forge a (client, seq) pair and poison duplicate-detection state.
struct Forward {
  Request request;
  Bytes signature;  // over forward_digest(request); empty when unsigned
};
/// Digest covered by a forward signature.
crypto::Hash256 forward_digest(const Request& r);

struct Reply {
  std::uint64_t client_seq = 0;
  ConsensusId cid = 0;
  Bytes payload;
};

// --- consensus traffic ---

struct Propose {
  ConsensusId cid = 0;
  Epoch epoch = 0;
  Bytes value;  // encoded Batch
};

struct WriteMsg {
  ConsensusId cid = 0;
  Epoch epoch = 0;
  ValueHash hash{};
  Bytes signature;  // empty when unsigned writes are configured
};

struct AcceptMsg {
  ConsensusId cid = 0;
  Epoch epoch = 0;
  ValueHash hash{};
};

// --- synchronization phase ---

struct Stop {
  Epoch next_epoch = 0;
  /// Sender's confirmed decision cursor: a catch-up hint that lets stragglers
  /// notice they missed decisions even when consensus traffic has dried up.
  ConsensusId last_decided = 0;
};

struct StopData {
  Epoch next_epoch = 0;
  ReplicaId from = 0;
  ConsensusId last_decided = 0;
  ConsensusId cid = 0;  // instance being synchronized
  std::optional<WriteCertificate> cert;
  Bytes value;      // value backing the certificate (may be empty if unknown)
  Bytes signature;  // over stopdata_digest(*this)
};
/// Digest covered by a STOPDATA signature (everything but the signature).
crypto::Hash256 stopdata_digest(const StopData& s);

struct Sync {
  Epoch new_epoch = 0;
  ConsensusId cid = 0;
  std::vector<Bytes> stopdata_blobs;  // encoded StopData, signature-preserving
  Bytes proposed_value;               // encoded Batch
};

// --- state transfer ---

struct StateRequest {
  ConsensusId last_decided = 0;
};

struct LogEntry {
  ConsensusId cid = 0;
  Bytes value;  // encoded Batch
};

struct StateReply {
  ConsensusId snapshot_cid = 0;  // decisions up to and including this one
  Bytes snapshot;                // application + core state at snapshot_cid
  std::vector<LogEntry> log;     // decisions after the snapshot
  Epoch epoch = 0;               // sender's current regency
};

/// One fragment of an encoded StateReply. Replies larger than
/// kStateChunkBytes stream as a sequence of chunks so a bulk checkpoint
/// cannot monopolize a transport link; the receiver acks each fragment and
/// the sender keeps at most kStateChunkWindow unacked chunks in flight per
/// peer. Reassembled bytes decode as a regular StateReply, so chunking
/// changes delivery, never the f+1 vouching logic.
struct StateChunk {
  std::uint64_t transfer_id = 0;  // sender-local, fresh per reply stream
  std::uint32_t index = 0;        // 0-based fragment position
  std::uint32_t total = 0;        // fragment count of the whole reply
  Bytes data;
};

struct StateChunkAck {
  std::uint64_t transfer_id = 0;
  std::uint32_t index = 0;
};

/// Largest StateReply sent whole, and the fragment size of larger ones.
/// Fragments carry 64 KiB each, so a receiver's 65 536-fragment cap admits
/// replies up to 4 GiB.
inline constexpr std::size_t kStateChunkBytes = 64 * 1024;
/// Unacknowledged fragments in flight per peer.
inline constexpr std::uint32_t kStateChunkWindow = 4;

// --- decided-value recovery ---

struct ValueRequest {
  ConsensusId cid = 0;
  ValueHash hash{};
};

struct ValueReply {
  ConsensusId cid = 0;
  Bytes value;
};

// --- receiver registration and pushes (custom replier, §5.1) ---

struct RegisterReceiver {};  // body-less: the sender id is the registration

struct Push {
  Bytes payload;  // opaque application payload (e.g. an encoded SignedBlock)
};

// --- codec registry ---
//
// One specialization per wire message. `kKind` is the tag; write_body /
// read_body handle everything after the kind byte.

#define BFT_SMR_DECLARE_CODEC(Type, Kind)          \
  template <>                                      \
  struct Codec<Type> {                             \
    static constexpr MsgKind kKind = Kind;         \
    static void write_body(Writer& w, const Type& v); \
    static Type read_body(Reader& r);              \
  }

BFT_SMR_DECLARE_CODEC(Request, MsgKind::request);
BFT_SMR_DECLARE_CODEC(Forward, MsgKind::forward);
BFT_SMR_DECLARE_CODEC(Propose, MsgKind::propose);
BFT_SMR_DECLARE_CODEC(WriteMsg, MsgKind::write);
BFT_SMR_DECLARE_CODEC(AcceptMsg, MsgKind::accept);
BFT_SMR_DECLARE_CODEC(Stop, MsgKind::stop);
BFT_SMR_DECLARE_CODEC(StopData, MsgKind::stopdata);
BFT_SMR_DECLARE_CODEC(Sync, MsgKind::sync);
BFT_SMR_DECLARE_CODEC(Reply, MsgKind::reply);
BFT_SMR_DECLARE_CODEC(StateRequest, MsgKind::state_request);
BFT_SMR_DECLARE_CODEC(StateReply, MsgKind::state_reply);
BFT_SMR_DECLARE_CODEC(ValueRequest, MsgKind::value_request);
BFT_SMR_DECLARE_CODEC(ValueReply, MsgKind::value_reply);
BFT_SMR_DECLARE_CODEC(RegisterReceiver, MsgKind::register_receiver);
BFT_SMR_DECLARE_CODEC(Push, MsgKind::push);
BFT_SMR_DECLARE_CODEC(StateChunk, MsgKind::state_chunk);
BFT_SMR_DECLARE_CODEC(StateChunkAck, MsgKind::state_chunk_ack);

#undef BFT_SMR_DECLARE_CODEC

/// Keeps the historical single-copy path: the payload view goes straight
/// into the frame without an intermediate Push value.
inline Bytes encode_push(ByteView payload) {
  Writer w(payload.size() + 8);
  w.u8(static_cast<std::uint8_t>(Codec<Push>::kKind));
  w.bytes(payload);
  return std::move(w).take();
}

}  // namespace bft::smr
