#include "smr/wire.hpp"

#include <gtest/gtest.h>

#include "smr/replica.hpp"  // ReconfigOp helpers

namespace bft::smr {
namespace {

Request sample_request() {
  Request r;
  r.client = 101;
  r.seq = 7;
  r.kind = RequestKind::application;
  r.payload = to_bytes("envelope-bytes");
  return r;
}

TEST(WireTest, RequestRoundTrip) {
  const Request r = sample_request();
  const Bytes encoded = encode(r);
  EXPECT_EQ(peek_kind(encoded), MsgKind::request);
  EXPECT_EQ(decode<Request>(encoded), r);
}

TEST(WireTest, ForwardRoundTrip) {
  const Forward f{sample_request(), to_bytes("relayer-signature")};
  const Bytes encoded = encode(f);
  const Forward decoded = decode<Forward>(encoded);
  EXPECT_EQ(decoded.request, f.request);
  EXPECT_EQ(decoded.signature, f.signature);
  EXPECT_THROW(decode<Request>(encoded), DecodeError);
}

TEST(WireTest, ForwardDigestCoversAllRequestFields) {
  const Request base = sample_request();
  Request seq = base;
  seq.seq += 1;
  Request payload = base;
  payload.payload.push_back(0x00);
  EXPECT_NE(forward_digest(base), forward_digest(seq));
  EXPECT_NE(forward_digest(base), forward_digest(payload));
  EXPECT_EQ(forward_digest(base), forward_digest(sample_request()));
}

TEST(WireTest, BatchRoundTrip) {
  Batch batch;
  batch.requests.push_back(sample_request());
  Request reconfig;
  reconfig.client = 55;
  reconfig.seq = 1;
  reconfig.kind = RequestKind::reconfig;
  reconfig.payload = to_bytes("x");
  batch.requests.push_back(reconfig);

  const Batch decoded = Batch::decode(batch.encode());
  ASSERT_EQ(decoded.requests.size(), 2u);
  EXPECT_EQ(decoded.requests[0], batch.requests[0]);
  EXPECT_EQ(decoded.requests[1], batch.requests[1]);
}

TEST(WireTest, EmptyBatch) {
  Batch batch;
  EXPECT_TRUE(Batch::decode(batch.encode()).requests.empty());
}

TEST(WireTest, BatchRejectsBadKind) {
  Bytes raw = Batch{{sample_request()}}.encode();
  raw[4 + 4 + 8] = 9;  // corrupt the kind byte of the first request
  EXPECT_THROW(Batch::decode(raw), DecodeError);
}

TEST(WireTest, ReplyRoundTrip) {
  Reply reply;
  reply.client_seq = 9;
  reply.cid = 4;
  reply.payload = to_bytes("result");
  const Reply decoded = decode<Reply>(encode(reply));
  EXPECT_EQ(decoded.client_seq, 9u);
  EXPECT_EQ(decoded.cid, 4u);
  EXPECT_EQ(decoded.payload, to_bytes("result"));
}

TEST(WireTest, ProposeWriteAcceptRoundTrip) {
  const ValueHash h = consensus::value_hash(to_bytes("batch"));

  Propose p{3, 1, to_bytes("batch")};
  const Propose p2 = decode<Propose>(encode(p));
  EXPECT_EQ(p2.cid, 3u);
  EXPECT_EQ(p2.epoch, 1u);
  EXPECT_EQ(p2.value, to_bytes("batch"));

  WriteMsg w{3, 1, h, to_bytes("sig")};
  const WriteMsg w2 = decode<WriteMsg>(encode(w));
  EXPECT_EQ(w2.cid, 3u);
  EXPECT_EQ(w2.hash, h);
  EXPECT_EQ(w2.signature, to_bytes("sig"));

  AcceptMsg a{3, 1, h};
  const AcceptMsg a2 = decode<AcceptMsg>(encode(a));
  EXPECT_EQ(a2.cid, 3u);
  EXPECT_EQ(a2.epoch, 1u);
  EXPECT_EQ(a2.hash, h);
}

TEST(WireTest, StopRoundTrip) {
  EXPECT_EQ(decode<Stop>(encode(Stop{5})).next_epoch, 5u);
}

TEST(WireTest, StopDataRoundTripWithCertificate) {
  StopData sd;
  sd.next_epoch = 2;
  sd.from = 1;
  sd.last_decided = 10;
  sd.cid = 11;
  WriteCertificate cert;
  cert.cid = 11;
  cert.epoch = 1;
  cert.hash = consensus::value_hash(to_bytes("v"));
  cert.votes.push_back({0, to_bytes("s0")});
  cert.votes.push_back({2, to_bytes("s2")});
  cert.votes.push_back({3, to_bytes("s3")});
  sd.cert = cert;
  sd.value = to_bytes("v");
  sd.signature = to_bytes("stopdata-sig");

  const StopData decoded = decode<StopData>(encode(sd));
  EXPECT_EQ(decoded.next_epoch, 2u);
  EXPECT_EQ(decoded.from, 1u);
  EXPECT_EQ(decoded.last_decided, 10u);
  EXPECT_EQ(decoded.cid, 11u);
  ASSERT_TRUE(decoded.cert.has_value());
  EXPECT_EQ(decoded.cert->hash, cert.hash);
  ASSERT_EQ(decoded.cert->votes.size(), 3u);
  EXPECT_EQ(decoded.cert->votes[1].from, 2u);
  EXPECT_EQ(decoded.value, to_bytes("v"));
  EXPECT_EQ(decoded.signature, to_bytes("stopdata-sig"));
}

TEST(WireTest, StopDataWithoutCertificate) {
  StopData sd;
  sd.next_epoch = 1;
  sd.from = 0;
  sd.cid = 1;
  const StopData decoded = decode<StopData>(encode(sd));
  EXPECT_FALSE(decoded.cert.has_value());
}

TEST(WireTest, StopDataDigestExcludesSignature) {
  StopData sd;
  sd.next_epoch = 1;
  sd.from = 0;
  sd.cid = 1;
  const auto digest_unsigned = stopdata_digest(sd);
  sd.signature = to_bytes("sig");
  EXPECT_EQ(stopdata_digest(sd), digest_unsigned);
  sd.cid = 2;
  EXPECT_NE(stopdata_digest(sd), digest_unsigned);
}

TEST(WireTest, SyncRoundTrip) {
  Sync sync;
  sync.new_epoch = 3;
  sync.cid = 12;
  sync.stopdata_blobs.push_back(to_bytes("blob-a"));
  sync.stopdata_blobs.push_back(to_bytes("blob-b"));
  sync.proposed_value = to_bytes("value");
  const Sync decoded = decode<Sync>(encode(sync));
  EXPECT_EQ(decoded.new_epoch, 3u);
  EXPECT_EQ(decoded.cid, 12u);
  ASSERT_EQ(decoded.stopdata_blobs.size(), 2u);
  EXPECT_EQ(decoded.stopdata_blobs[1], to_bytes("blob-b"));
  EXPECT_EQ(decoded.proposed_value, to_bytes("value"));
}

TEST(WireTest, StateTransferRoundTrip) {
  EXPECT_EQ(decode<StateRequest>(encode(StateRequest{42})).last_decided,
            42u);

  StateReply reply;
  reply.snapshot_cid = 8;
  reply.snapshot = to_bytes("snap");
  reply.log.push_back({9, to_bytes("b9")});
  reply.log.push_back({10, to_bytes("b10")});
  reply.epoch = 2;
  const StateReply decoded = decode<StateReply>(encode(reply));
  EXPECT_EQ(decoded.snapshot_cid, 8u);
  EXPECT_EQ(decoded.snapshot, to_bytes("snap"));
  ASSERT_EQ(decoded.log.size(), 2u);
  EXPECT_EQ(decoded.log[1].cid, 10u);
  EXPECT_EQ(decoded.epoch, 2u);
}

TEST(WireTest, StateChunkRoundTrip) {
  StateChunk chunk;
  chunk.transfer_id = 77;
  chunk.index = 3;
  chunk.total = 9;
  chunk.data = to_bytes("fragment-bytes");
  const Bytes encoded = encode(chunk);
  EXPECT_EQ(peek_kind(encoded), MsgKind::state_chunk);
  const StateChunk decoded = decode<StateChunk>(encoded);
  EXPECT_EQ(decoded.transfer_id, 77u);
  EXPECT_EQ(decoded.index, 3u);
  EXPECT_EQ(decoded.total, 9u);
  EXPECT_EQ(decoded.data, chunk.data);

  const Bytes ack = encode(StateChunkAck{77, 3});
  EXPECT_EQ(peek_kind(ack), MsgKind::state_chunk_ack);
  EXPECT_EQ(decode<StateChunkAck>(ack).transfer_id, 77u);
  EXPECT_EQ(decode<StateChunkAck>(ack).index, 3u);
  EXPECT_TRUE(kind_known(MsgKind::state_chunk));
  EXPECT_TRUE(kind_known(MsgKind::state_chunk_ack));
}

TEST(WireTest, ValueExchangeRoundTrip) {
  const ValueHash h = consensus::value_hash(to_bytes("v"));
  const ValueRequest vr = decode<ValueRequest>(encode(ValueRequest{6, h}));
  EXPECT_EQ(vr.cid, 6u);
  EXPECT_EQ(vr.hash, h);
  const ValueReply vy = decode<ValueReply>(encode(ValueReply{6, to_bytes("v")}));
  EXPECT_EQ(vy.cid, 6u);
  EXPECT_EQ(vy.value, to_bytes("v"));
}

TEST(WireTest, PushRoundTrip) {
  const Bytes payload = to_bytes("block-bytes");
  EXPECT_EQ(decode<Push>(encode_push(payload)).payload, payload);
  EXPECT_EQ(peek_kind(encode(RegisterReceiver{})), MsgKind::register_receiver);
}

TEST(WireTest, PeekKindRejectsEmpty) {
  EXPECT_THROW(peek_kind(Bytes{}), DecodeError);
}

TEST(WireTest, TruncatedMessagesThrow) {
  const Bytes propose = encode(Propose{1, 0, to_bytes("v")});
  for (std::size_t cut : {1u, 5u, 12u}) {
    EXPECT_THROW(decode<Propose>(ByteView(propose.data(), cut)), DecodeError);
  }
}

TEST(WireTest, GenericCodecRoundTrip) {
  // The tagged codec is the single framing implementation: the kind byte,
  // then the type's body.
  const Request r = sample_request();
  const Bytes via_generic = encode(r);
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgKind::request));
  w.u32(r.client);
  w.u64(r.seq);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.bytes(r.payload);
  EXPECT_EQ(via_generic, std::move(w).take());
  EXPECT_EQ(decode<Request>(via_generic), r);
}

TEST(WireTest, GenericDecodeRejectsWrongKind) {
  const Bytes stop = encode(Stop{3, 17});
  EXPECT_THROW(decode<Propose>(stop), DecodeError);
  EXPECT_EQ(decode<Stop>(stop).next_epoch, 3u);
}

TEST(WireTest, KindNamesAndRangeChecks) {
  EXPECT_STREQ(kind_name(MsgKind::propose), "propose");
  EXPECT_STREQ(kind_name(MsgKind::push), "push");
  EXPECT_STREQ(kind_name(static_cast<MsgKind>(200)), "unknown");
  EXPECT_TRUE(kind_known(MsgKind::request));
  EXPECT_TRUE(kind_known(MsgKind::push));
  EXPECT_FALSE(kind_known(static_cast<MsgKind>(0)));
  EXPECT_FALSE(kind_known(static_cast<MsgKind>(200)));
}

TEST(WireTest, GenericDecodeRejectsTrailingBytes) {
  Bytes padded = encode(Stop{1, 2});
  padded.push_back(0x00);
  EXPECT_THROW(decode<Stop>(padded), DecodeError);
}

TEST(WireTest, ReconfigPayloadRoundTrip) {
  const Bytes add = encode_reconfig(ReconfigOp::add, 9);
  const auto [op, node] = decode_reconfig(add);
  EXPECT_EQ(op, ReconfigOp::add);
  EXPECT_EQ(node, 9u);
  EXPECT_THROW(decode_reconfig(to_bytes("zz")), DecodeError);
}

}  // namespace
}  // namespace bft::smr
