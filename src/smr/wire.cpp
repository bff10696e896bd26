#include "smr/wire.hpp"

namespace bft::smr {

namespace {

void put_hash(Writer& w, const ValueHash& h) {
  w.raw(ByteView(h.data(), h.size()));
}

ValueHash get_hash(Reader& r) {
  return crypto::hash_from_bytes(r.raw(32));
}

void put_cert(Writer& w, const WriteCertificate& cert) {
  w.u64(cert.cid);
  w.u32(cert.epoch);
  put_hash(w, cert.hash);
  w.u32(static_cast<std::uint32_t>(cert.votes.size()));
  for (const auto& vote : cert.votes) {
    w.u32(vote.from);
    w.bytes(vote.signature);
  }
}

WriteCertificate get_cert(Reader& r) {
  WriteCertificate cert;
  cert.cid = r.u64();
  cert.epoch = r.u32();
  cert.hash = get_hash(r);
  const std::uint32_t votes = r.u32();
  cert.votes.reserve(r.safe_reserve(votes));
  for (std::uint32_t i = 0; i < votes; ++i) {
    consensus::WriteVote vote;
    vote.from = r.u32();
    vote.signature = r.bytes();
    cert.votes.push_back(std::move(vote));
  }
  return cert;
}

void put_request_body(Writer& w, const Request& req) {
  w.u32(req.client);
  w.u64(req.seq);
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.bytes(req.payload);
}

Request get_request_body(Reader& r) {
  Request req;
  req.client = r.u32();
  req.seq = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind > 1) throw DecodeError("bad request kind");
  req.kind = static_cast<RequestKind>(kind);
  req.payload = r.bytes();
  return req;
}

/// StopData fields covered by the STOPDATA signature (everything but the
/// signature itself); shared by the codec body and stopdata_digest.
void put_stopdata_core(Writer& w, const StopData& s) {
  w.u32(s.next_epoch);
  w.u32(s.from);
  w.u64(s.last_decided);
  w.u64(s.cid);
  w.boolean(s.cert.has_value());
  if (s.cert) put_cert(w, *s.cert);
  w.bytes(s.value);
}

}  // namespace

MsgKind peek_kind(ByteView data) {
  if (data.empty()) throw DecodeError("empty message");
  return static_cast<MsgKind>(data[0]);
}

const char* kind_name(MsgKind kind) {
  switch (kind) {
    case MsgKind::request: return "request";
    case MsgKind::forward: return "forward";
    case MsgKind::propose: return "propose";
    case MsgKind::write: return "write";
    case MsgKind::accept: return "accept";
    case MsgKind::stop: return "stop";
    case MsgKind::stopdata: return "stopdata";
    case MsgKind::sync: return "sync";
    case MsgKind::reply: return "reply";
    case MsgKind::state_request: return "state_request";
    case MsgKind::state_reply: return "state_reply";
    case MsgKind::value_request: return "value_request";
    case MsgKind::value_reply: return "value_reply";
    case MsgKind::register_receiver: return "register_receiver";
    case MsgKind::push: return "push";
    case MsgKind::state_chunk: return "state_chunk";
    case MsgKind::state_chunk_ack: return "state_chunk_ack";
  }
  return "unknown";
}

bool kind_known(MsgKind kind) {
  return kind >= MsgKind::request && kind <= MsgKind::state_chunk_ack;
}

bool Request::operator==(const Request& other) const {
  return client == other.client && seq == other.seq && kind == other.kind &&
         payload == other.payload;
}

Bytes Batch::encode() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(requests.size()));
  for (const Request& r : requests) put_request_body(w, r);
  return std::move(w).take();
}

Batch Batch::decode(ByteView data) {
  Reader r(data);
  Batch batch;
  const std::uint32_t count = r.u32();
  batch.requests.reserve(r.safe_reserve(count));
  for (std::uint32_t i = 0; i < count; ++i) {
    batch.requests.push_back(get_request_body(r));
  }
  r.expect_done();
  return batch;
}

// --- codec bodies ---

void Codec<Request>::write_body(Writer& w, const Request& v) {
  put_request_body(w, v);
}
Request Codec<Request>::read_body(Reader& r) { return get_request_body(r); }

void Codec<Forward>::write_body(Writer& w, const Forward& v) {
  put_request_body(w, v.request);
  w.bytes(v.signature);
}
Forward Codec<Forward>::read_body(Reader& r) {
  Forward f;
  f.request = get_request_body(r);
  f.signature = r.bytes();
  return f;
}

void Codec<Reply>::write_body(Writer& w, const Reply& v) {
  w.u64(v.client_seq);
  w.u64(v.cid);
  w.bytes(v.payload);
}
Reply Codec<Reply>::read_body(Reader& r) {
  Reply reply;
  reply.client_seq = r.u64();
  reply.cid = r.u64();
  reply.payload = r.bytes();
  return reply;
}

void Codec<Propose>::write_body(Writer& w, const Propose& v) {
  w.u64(v.cid);
  w.u32(v.epoch);
  w.bytes(v.value);
}
Propose Codec<Propose>::read_body(Reader& r) {
  Propose p;
  p.cid = r.u64();
  p.epoch = r.u32();
  p.value = r.bytes();
  return p;
}

void Codec<WriteMsg>::write_body(Writer& w, const WriteMsg& v) {
  w.u64(v.cid);
  w.u32(v.epoch);
  put_hash(w, v.hash);
  w.bytes(v.signature);
}
WriteMsg Codec<WriteMsg>::read_body(Reader& r) {
  WriteMsg msg;
  msg.cid = r.u64();
  msg.epoch = r.u32();
  msg.hash = get_hash(r);
  msg.signature = r.bytes();
  return msg;
}

void Codec<AcceptMsg>::write_body(Writer& w, const AcceptMsg& v) {
  w.u64(v.cid);
  w.u32(v.epoch);
  put_hash(w, v.hash);
}
AcceptMsg Codec<AcceptMsg>::read_body(Reader& r) {
  AcceptMsg msg;
  msg.cid = r.u64();
  msg.epoch = r.u32();
  msg.hash = get_hash(r);
  return msg;
}

void Codec<Stop>::write_body(Writer& w, const Stop& v) {
  w.u32(v.next_epoch);
  w.u64(v.last_decided);
}
Stop Codec<Stop>::read_body(Reader& r) {
  Stop s;
  s.next_epoch = r.u32();
  s.last_decided = r.u64();
  return s;
}

void Codec<StopData>::write_body(Writer& w, const StopData& v) {
  put_stopdata_core(w, v);
  w.bytes(v.signature);
}
StopData Codec<StopData>::read_body(Reader& r) {
  StopData s;
  s.next_epoch = r.u32();
  s.from = r.u32();
  s.last_decided = r.u64();
  s.cid = r.u64();
  if (r.boolean()) s.cert = get_cert(r);
  s.value = r.bytes();
  s.signature = r.bytes();
  return s;
}

void Codec<Sync>::write_body(Writer& w, const Sync& v) {
  w.u32(v.new_epoch);
  w.u64(v.cid);
  w.u32(static_cast<std::uint32_t>(v.stopdata_blobs.size()));
  for (const Bytes& blob : v.stopdata_blobs) w.bytes(blob);
  w.bytes(v.proposed_value);
}
Sync Codec<Sync>::read_body(Reader& r) {
  Sync s;
  s.new_epoch = r.u32();
  s.cid = r.u64();
  const std::uint32_t blobs = r.u32();
  s.stopdata_blobs.reserve(r.safe_reserve(blobs));
  for (std::uint32_t i = 0; i < blobs; ++i) s.stopdata_blobs.push_back(r.bytes());
  s.proposed_value = r.bytes();
  return s;
}

void Codec<StateRequest>::write_body(Writer& w, const StateRequest& v) {
  w.u64(v.last_decided);
}
StateRequest Codec<StateRequest>::read_body(Reader& r) {
  StateRequest s;
  s.last_decided = r.u64();
  return s;
}

void Codec<StateReply>::write_body(Writer& w, const StateReply& v) {
  w.u64(v.snapshot_cid);
  w.bytes(v.snapshot);
  w.u32(static_cast<std::uint32_t>(v.log.size()));
  for (const LogEntry& e : v.log) {
    w.u64(e.cid);
    w.bytes(e.value);
  }
  w.u32(v.epoch);
}
StateReply Codec<StateReply>::read_body(Reader& r) {
  StateReply s;
  s.snapshot_cid = r.u64();
  s.snapshot = r.bytes();
  const std::uint32_t entries = r.u32();
  s.log.reserve(r.safe_reserve(entries));
  for (std::uint32_t i = 0; i < entries; ++i) {
    LogEntry e;
    e.cid = r.u64();
    e.value = r.bytes();
    s.log.push_back(std::move(e));
  }
  s.epoch = r.u32();
  return s;
}

void Codec<ValueRequest>::write_body(Writer& w, const ValueRequest& v) {
  w.u64(v.cid);
  put_hash(w, v.hash);
}
ValueRequest Codec<ValueRequest>::read_body(Reader& r) {
  ValueRequest v;
  v.cid = r.u64();
  v.hash = get_hash(r);
  return v;
}

void Codec<ValueReply>::write_body(Writer& w, const ValueReply& v) {
  w.u64(v.cid);
  w.bytes(v.value);
}
ValueReply Codec<ValueReply>::read_body(Reader& r) {
  ValueReply v;
  v.cid = r.u64();
  v.value = r.bytes();
  return v;
}

void Codec<RegisterReceiver>::write_body(Writer&, const RegisterReceiver&) {}
RegisterReceiver Codec<RegisterReceiver>::read_body(Reader&) { return {}; }

void Codec<Push>::write_body(Writer& w, const Push& v) { w.bytes(v.payload); }
Push Codec<Push>::read_body(Reader& r) {
  Push p;
  p.payload = r.bytes();
  return p;
}

void Codec<StateChunk>::write_body(Writer& w, const StateChunk& v) {
  w.u64(v.transfer_id);
  w.u32(v.index);
  w.u32(v.total);
  w.bytes(v.data);
}
StateChunk Codec<StateChunk>::read_body(Reader& r) {
  StateChunk c;
  c.transfer_id = r.u64();
  c.index = r.u32();
  c.total = r.u32();
  c.data = r.bytes();
  return c;
}

void Codec<StateChunkAck>::write_body(Writer& w, const StateChunkAck& v) {
  w.u64(v.transfer_id);
  w.u32(v.index);
}
StateChunkAck Codec<StateChunkAck>::read_body(Reader& r) {
  StateChunkAck a;
  a.transfer_id = r.u64();
  a.index = r.u32();
  return a;
}

// --- signature digests ---

crypto::Hash256 forward_digest(const Request& r) {
  Writer w;
  w.str("bft.forward");
  put_request_body(w, r);
  return crypto::sha256(w.data());
}

crypto::Hash256 stopdata_digest(const StopData& s) {
  Writer w;
  w.str("bft.stopdata");
  put_stopdata_core(w, s);
  return crypto::sha256(w.data());
}

}  // namespace bft::smr
