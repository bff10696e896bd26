#include "smr/wire.hpp"

#include <iterator>

namespace bft::smr {

// Wire types nested inside messages (not messages of their own).
#define BFT_SMR_DECLARE_BODY(Type)                    \
  template <>                                         \
  struct Codec<Type> {                                \
    static void write_body(Writer& w, const Type& v); \
    static Type read_body(Reader& r);                 \
  }
BFT_SMR_DECLARE_BODY(consensus::WriteVote);
BFT_SMR_DECLARE_BODY(WriteCertificate);
BFT_SMR_DECLARE_BODY(LogEntry);
#undef BFT_SMR_DECLARE_BODY

namespace {

// One field list per type drives both directions: FieldWriter and
// FieldReader visit the same fields in the same order. Integers keep their
// declared width, byte strings and lists are u32-length-prefixed, optionals
// carry a presence byte, and nested types use their own field lists.
struct FieldWriter {
  Writer& w;

  template <typename... F>
  void operator()(const F&... fields) {
    (put(fields), ...);
  }
  void put(std::uint32_t v) { w.u32(v); }
  void put(std::uint64_t v) { w.u64(v); }
  void put(const Bytes& v) { w.bytes(v); }
  void put(const ValueHash& v) { w.raw(ByteView(v.data(), v.size())); }
  void put(RequestKind v) { w.u8(static_cast<std::uint8_t>(v)); }
  template <typename T>
  void put(const std::optional<T>& v) {
    w.boolean(v.has_value());
    if (v.has_value()) put(*v);
  }
  template <typename T>
  void put(const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) put(e);
  }
  template <typename T>
  void put(const T& v) {
    Codec<T>::write_body(w, v);
  }
};

struct FieldReader {
  Reader& r;

  template <typename... F>
  void operator()(F&... fields) {
    (get(fields), ...);
  }
  void get(std::uint32_t& v) { v = r.u32(); }
  void get(std::uint64_t& v) { v = r.u64(); }
  void get(Bytes& v) { v = r.bytes(); }
  void get(ValueHash& v) { v = crypto::hash_from_bytes(r.raw(32)); }
  void get(RequestKind& v) {
    const std::uint8_t kind = r.u8();
    if (kind > 1) throw DecodeError("bad request kind");
    v = static_cast<RequestKind>(kind);
  }
  template <typename T>
  void get(std::optional<T>& v) {
    v.reset();
    if (r.boolean()) get(v.emplace());
  }
  template <typename T>
  void get(std::vector<T>& v) {
    const std::uint32_t count = r.u32();
    v.clear();
    v.reserve(r.safe_reserve(count));
    for (std::uint32_t i = 0; i < count; ++i) get(v.emplace_back());
  }
  template <typename T>
  void get(T& v) {
    v = Codec<T>::read_body(r);
  }
};

}  // namespace

MsgKind peek_kind(ByteView data) {
  if (data.empty()) throw DecodeError("empty message");
  return static_cast<MsgKind>(data[0]);
}

bool kind_known(MsgKind kind) {
  return kind >= MsgKind::request && kind <= kLastMsgKind;
}

const char* kind_name(MsgKind kind) {
  static constexpr const char* kNames[] = {
      "unknown",       "request",       "forward",
      "propose",       "write",         "accept",
      "stop",          "stopdata",      "sync",
      "reply",         "state_request", "state_reply",
      "value_request", "value_reply",   "register_receiver",
      "push",          "state_chunk",   "state_chunk_ack"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(kLastMsgKind) + 1);
  return kNames[kind_known(kind) ? static_cast<std::size_t>(kind) : 0];
}

bool Request::operator==(const Request& other) const {
  return client == other.client && seq == other.seq && kind == other.kind &&
         payload == other.payload;
}

Bytes Batch::encode() const {
  Writer w;
  FieldWriter{w}(requests);
  return std::move(w).take();
}

Batch Batch::decode(ByteView data) {
  Reader r(data);
  Batch batch;
  FieldReader{r}(batch.requests);
  r.expect_done();
  return batch;
}

// --- codec bodies: one field list over `v` per type ---

#define BFT_SMR_FIELDS(Type, ...)                        \
  void Codec<Type>::write_body(Writer& w, const Type& v) { \
    FieldWriter{w}(__VA_ARGS__);                         \
  }                                                      \
  Type Codec<Type>::read_body(Reader& r) {               \
    Type v;                                              \
    FieldReader{r}(__VA_ARGS__);                         \
    return v;                                            \
  }

// Everything a STOPDATA signature covers: all fields but the signature.
#define BFT_SMR_STOPDATA_SIGNED \
  v.next_epoch, v.from, v.last_decided, v.cid, v.cert, v.value

BFT_SMR_FIELDS(consensus::WriteVote, v.from, v.signature)
BFT_SMR_FIELDS(WriteCertificate, v.cid, v.epoch, v.hash, v.votes)
BFT_SMR_FIELDS(LogEntry, v.cid, v.value)
BFT_SMR_FIELDS(Request, v.client, v.seq, v.kind, v.payload)
BFT_SMR_FIELDS(Forward, v.request, v.signature)
BFT_SMR_FIELDS(Reply, v.client_seq, v.cid, v.payload)
BFT_SMR_FIELDS(Propose, v.cid, v.epoch, v.value)
BFT_SMR_FIELDS(WriteMsg, v.cid, v.epoch, v.hash, v.signature)
BFT_SMR_FIELDS(AcceptMsg, v.cid, v.epoch, v.hash)
BFT_SMR_FIELDS(Stop, v.next_epoch, v.last_decided)
BFT_SMR_FIELDS(StopData, BFT_SMR_STOPDATA_SIGNED, v.signature)
BFT_SMR_FIELDS(Sync, v.new_epoch, v.cid, v.stopdata_blobs, v.proposed_value)
BFT_SMR_FIELDS(StateRequest, v.last_decided)
BFT_SMR_FIELDS(StateReply, v.snapshot_cid, v.snapshot, v.log, v.epoch)
BFT_SMR_FIELDS(ValueRequest, v.cid, v.hash)
BFT_SMR_FIELDS(ValueReply, v.cid, v.value)
BFT_SMR_FIELDS(Push, v.payload)
BFT_SMR_FIELDS(StateChunk, v.transfer_id, v.index, v.total, v.data)
BFT_SMR_FIELDS(StateChunkAck, v.transfer_id, v.index)

#undef BFT_SMR_FIELDS

void Codec<RegisterReceiver>::write_body(Writer&, const RegisterReceiver&) {}
RegisterReceiver Codec<RegisterReceiver>::read_body(Reader&) { return {}; }

// --- signature digests ---

crypto::Hash256 forward_digest(const Request& r) {
  Writer w;
  w.str("bft.forward");
  FieldWriter{w}(r);
  return crypto::sha256(w.data());
}

crypto::Hash256 stopdata_digest(const StopData& v) {
  Writer w;
  w.str("bft.stopdata");
  FieldWriter{w}(BFT_SMR_STOPDATA_SIGNED);
  return crypto::sha256(w.data());
}

#undef BFT_SMR_STOPDATA_SIGNED

}  // namespace bft::smr
