// Decoder robustness: Byzantine peers control every byte on the wire, so
// decoders must never crash, hang or accept garbage silently — the only
// permitted failure is DecodeError. Deterministic pseudo-fuzz over random
// buffers, random truncations of valid messages, and single-byte
// corruptions.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ledger/block.hpp"
#include "ordering/node.hpp"
#include "smr/wire.hpp"

namespace bft::smr {
namespace {

template <typename DecodeFn>
void expect_no_crash(DecodeFn&& decode, ByteView data) {
  try {
    decode(data);
  } catch (const DecodeError&) {
    // The one acceptable outcome for malformed input.
  }
}

template <typename DecodeFn>
void fuzz_decoder(DecodeFn&& decode, std::uint64_t seed,
                  const Bytes& valid_sample) {
  Rng rng(seed);
  // Pure random buffers.
  for (int i = 0; i < 400; ++i) {
    expect_no_crash(decode, rng.bytes(rng.uniform(200)));
  }
  // Truncations of a valid message.
  for (std::size_t cut = 0; cut < valid_sample.size(); ++cut) {
    expect_no_crash(decode, ByteView(valid_sample.data(), cut));
  }
  // Single-byte corruptions of a valid message.
  for (int i = 0; i < 200; ++i) {
    Bytes corrupted = valid_sample;
    const std::size_t pos = rng.uniform(corrupted.size());
    corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    expect_no_crash(decode, corrupted);
  }
  // Random suffix growth (trailing garbage must be rejected, not read OOB).
  for (int i = 0; i < 50; ++i) {
    Bytes extended = valid_sample;
    append(extended, rng.bytes(1 + rng.uniform(16)));
    expect_no_crash(decode, extended);
  }
}

TEST(WireFuzzTest, Request) {
  Request r;
  r.client = 7;
  r.seq = 9;
  r.payload = to_bytes("payload");
  fuzz_decoder([](ByteView d) { return decode<Request>(d); }, 1,
               encode(r));
}

TEST(WireFuzzTest, Batch) {
  Batch b;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.client = static_cast<std::uint32_t>(i);
    r.seq = static_cast<std::uint64_t>(i);
    std::string payload = "x";
    payload += std::to_string(i);
    r.payload = to_bytes(payload);
    b.requests.push_back(std::move(r));
  }
  fuzz_decoder([](ByteView d) { return Batch::decode(d); }, 2, b.encode());
}

TEST(WireFuzzTest, Propose) {
  fuzz_decoder([](ByteView d) { return decode<Propose>(d); }, 3,
               encode(Propose{5, 1, to_bytes("value-bytes")}));
}

TEST(WireFuzzTest, WriteAndAccept) {
  const ValueHash h = consensus::value_hash(to_bytes("v"));
  fuzz_decoder([](ByteView d) { return decode<WriteMsg>(d); }, 4,
               encode(WriteMsg{5, 1, h, to_bytes("sig")}));
  fuzz_decoder([](ByteView d) { return decode<AcceptMsg>(d); }, 5,
               encode(AcceptMsg{5, 1, h}));
}

TEST(WireFuzzTest, StopDataWithCertificate) {
  StopData sd;
  sd.next_epoch = 3;
  sd.from = 1;
  sd.cid = 9;
  consensus::WriteCertificate cert;
  cert.cid = 9;
  cert.epoch = 2;
  cert.hash = consensus::value_hash(to_bytes("v"));
  cert.votes.push_back({0, to_bytes("s0")});
  cert.votes.push_back({2, to_bytes("s2")});
  sd.cert = cert;
  sd.value = to_bytes("v");
  sd.signature = to_bytes("sig");
  fuzz_decoder([](ByteView d) { return decode<StopData>(d); }, 6,
               encode(sd));
}

TEST(WireFuzzTest, Sync) {
  Sync sync;
  sync.new_epoch = 3;
  sync.cid = 9;
  sync.stopdata_blobs = {to_bytes("blob-a"), to_bytes("blob-b")};
  sync.proposed_value = to_bytes("value");
  fuzz_decoder([](ByteView d) { return decode<Sync>(d); }, 7, encode(sync));
}

TEST(WireFuzzTest, StateReply) {
  StateReply reply;
  reply.snapshot_cid = 4;
  reply.snapshot = to_bytes("snapshot-bytes");
  reply.log.push_back({5, to_bytes("b5")});
  reply.epoch = 2;
  fuzz_decoder([](ByteView d) { return decode<StateReply>(d); }, 8,
               encode(reply));
}

TEST(WireFuzzTest, LedgerBlock) {
  const ledger::Block block = ledger::make_block(
      3, crypto::sha256(to_bytes("prev")),
      {to_bytes("tx-1"), to_bytes("tx-2")});
  fuzz_decoder([](ByteView d) { return ledger::Block::decode(d); }, 9,
               block.encode());
}

TEST(WireFuzzTest, SignedBlockAndOrderedPayload) {
  const ordering::SignedBlock sb{
      "channel-0",
      ledger::make_block(1, ledger::genesis_hash("channel-0"),
                         {to_bytes("tx")}),
      to_bytes("sig")};
  fuzz_decoder([](ByteView d) { return ordering::SignedBlock::decode(d); }, 10,
               sb.encode());

  ordering::OrderedPayload payload;
  payload.channel = "channel-0";
  payload.envelope = to_bytes("tx");
  fuzz_decoder([](ByteView d) { return ordering::OrderedPayload::decode(d); },
               11, payload.encode());
}

}  // namespace
}  // namespace bft::smr
