// State transfer's pure parts: f+1 assembly and the chunked reply streams.
#include "smr/state_transfer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace bft::smr {
namespace {

StateReply reply_at(ConsensusId snapshot_cid, const std::string& snapshot,
                    std::vector<LogEntry> log = {}, Epoch epoch = 0) {
  return StateReply{snapshot_cid, to_bytes(snapshot), std::move(log), epoch};
}

std::vector<LogEntry> log_of(ConsensusId first,
                             const std::vector<std::string>& values) {
  std::vector<LogEntry> log;
  for (const std::string& v : values) log.push_back(LogEntry{first++, to_bytes(v)});
  return log;
}

TEST(AssembleStateTest, UnderVouchedSnapshotIsRefused) {
  const std::map<runtime::ProcessId, StateReply> replies{
      {1, reply_at(4, "a")}, {2, reply_at(4, "b")}, {3, reply_at(4, "c")}};
  EXPECT_FALSE(assemble_state(replies, 2, 0).has_value());
}

TEST(AssembleStateTest, NothingPastTheConfirmedCursorIsRefused) {
  const std::map<runtime::ProcessId, StateReply> replies{
      {1, reply_at(4, "s")}, {2, reply_at(4, "s")}};
  EXPECT_FALSE(assemble_state(replies, 2, 4).has_value());
  EXPECT_TRUE(assemble_state(replies, 2, 3).has_value());
}

TEST(AssembleStateTest, ConflictingLogEntryCutsAgreedPrefix) {
  const std::map<runtime::ProcessId, StateReply> replies{
      {1, reply_at(0, "s", log_of(1, {"x", "y", "z"}))},
      {2, reply_at(0, "s", log_of(1, {"x", "forged", "z"}))}};
  const auto state = assemble_state(replies, 2, 0);
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(state->log.size(), 1u);
  EXPECT_EQ(state->log[0].cid, 1u);
  EXPECT_EQ(state->log[0].value, to_bytes("x"));
}

TEST(AssembleStateTest, GroupWithFurthestCoverageWins) {
  const std::map<runtime::ProcessId, StateReply> replies{
      {1, reply_at(4, "newer")},
      {2, reply_at(4, "newer")},
      {3, reply_at(0, "older", log_of(1, {"a", "b", "c", "d", "e", "f"}))},
      {4, reply_at(0, "older", log_of(1, {"a", "b", "c", "d", "e", "f"}))}};
  const auto state = assemble_state(replies, 2, 0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->snapshot_cid, 0u);
  EXPECT_EQ(state->snapshot, to_bytes("older"));
  ASSERT_EQ(state->log.size(), 6u);
  EXPECT_EQ(state->log.back().cid, 6u);
}

TEST(AssembleStateTest, EpochIsTheMaximumWithinTheWinningGroup) {
  // Visit the losing group first, so an epoch carried over from it shows.
  std::string loser = "loser", winner = "winner";
  if (consensus::value_hash(to_bytes(winner)) <
      consensus::value_hash(to_bytes(loser))) {
    std::swap(loser, winner);
  }
  const std::map<runtime::ProcessId, StateReply> replies{
      {1, reply_at(3, loser, {}, 9)},
      {2, reply_at(3, loser, {}, 9)},
      {3, reply_at(5, winner, {}, 2)},
      {4, reply_at(5, winner, {}, 4)}};
  const auto state = assemble_state(replies, 2, 0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->snapshot, to_bytes(winner));
  EXPECT_EQ(state->epoch, 4u);
}

Bytes pattern(std::size_t size) {
  Bytes b(size);
  for (std::size_t i = 0; i < size; ++i) b[i] = static_cast<std::uint8_t>(i * 7);
  return b;
}

TEST(ChunkStreamTest, AtMostWindowFragmentsAreOutstanding) {
  ChunkSender sender;
  sender.start(7, pattern(10 * kStateChunkBytes + 5));
  std::vector<StateChunk> sent;
  while (auto chunk = sender.next(7)) sent.push_back(*chunk);
  ASSERT_EQ(sent.size(), kStateChunkWindow);
  EXPECT_EQ(sent.front().total, 11u);
  EXPECT_TRUE(sender.ack(7, StateChunkAck{sent[0].transfer_id, 0}));
  const auto more = sender.next(7);
  ASSERT_TRUE(more.has_value());
  EXPECT_EQ(more->index, kStateChunkWindow);
  EXPECT_FALSE(sender.next(7).has_value());
}

TEST(ChunkStreamTest, DuplicateAcksFreeNoWindowSlot) {
  // A link that duplicates frames repeats acks: only a fragment's first ack
  // counts, and only for a fragment already sent.
  ChunkSender sender;
  sender.start(7, pattern(10 * kStateChunkBytes + 5));
  std::vector<StateChunk> sent;
  while (auto chunk = sender.next(7)) sent.push_back(*chunk);
  ASSERT_EQ(sent.size(), kStateChunkWindow);
  const std::uint64_t id = sent[0].transfer_id;
  EXPECT_FALSE(sender.ack(7, StateChunkAck{id, kStateChunkWindow}));
  for (int i = 0; i < 4; ++i) {
    sender.ack(7, StateChunkAck{id, 0});
    while (auto chunk = sender.next(7)) sent.push_back(*chunk);
  }
  EXPECT_LE(sent.size() - 1, kStateChunkWindow);  // fragment 0 is acked
  for (int i = 0; i < 20; ++i) sender.ack(7, StateChunkAck{id, 0});
  // Still open: acking fragment 1 is counted and frees a slot.
  EXPECT_TRUE(sender.ack(7, StateChunkAck{id, 1}));
  EXPECT_TRUE(sender.next(7).has_value());
}

TEST(ChunkStreamTest, MalformedHeadersAreRejected) {
  ChunkReceiver receiver;
  using F = ChunkReceiver::Fragment;
  EXPECT_EQ(receiver.add(1, StateChunk{1, 0, 0, to_bytes("x")}), F::rejected);
  EXPECT_EQ(receiver.add(1, StateChunk{1, 0, (1u << 16) + 1, to_bytes("x")}),
            F::rejected);
  EXPECT_EQ(receiver.add(1, StateChunk{1, 3, 3, to_bytes("x")}), F::rejected);
  EXPECT_EQ(receiver.add(1, StateChunk{1, 0, 1u << 16, to_bytes("x")}),
            F::stored);
}

TEST(ChunkStreamTest, OutOfOrderFragmentsReassemble) {
  const Bytes reply = pattern(3 * kStateChunkBytes + 17);
  ChunkSender sender;
  sender.start(2, reply);
  std::vector<StateChunk> chunks;
  for (;;) {
    auto chunk = sender.next(2);
    if (!chunk.has_value()) break;
    sender.ack(2, StateChunkAck{chunk->transfer_id, chunk->index});
    chunks.push_back(std::move(*chunk));
  }
  ASSERT_EQ(chunks.size(), 4u);
  std::reverse(chunks.begin(), chunks.end());
  ChunkReceiver receiver;
  using F = ChunkReceiver::Fragment;
  EXPECT_EQ(receiver.add(5, chunks[0]), F::stored);
  EXPECT_EQ(receiver.add(5, chunks[0]), F::duplicate);
  EXPECT_EQ(receiver.add(5, chunks[1]), F::stored);
  EXPECT_EQ(receiver.add(5, chunks[2]), F::stored);
  EXPECT_EQ(receiver.add(5, chunks[3]), F::completed);
  EXPECT_EQ(receiver.take(5), reply);
}

TEST(ChunkStreamTest, NewTransferIdFromTheSamePeerAbandonsTheOldStream) {
  ChunkReceiver receiver;
  using F = ChunkReceiver::Fragment;
  EXPECT_EQ(receiver.add(1, StateChunk{1, 0, 2, to_bytes("old")}), F::stored);
  EXPECT_EQ(receiver.add(1, StateChunk{2, 1, 2, to_bytes("B")}), F::stored);
  EXPECT_EQ(receiver.add(1, StateChunk{2, 0, 2, to_bytes("A")}), F::completed);
  EXPECT_EQ(receiver.take(1), to_bytes("AB"));
}

TEST(ChunkStreamTest, StaleAckIsIgnored) {
  ChunkSender sender;
  sender.start(3, pattern(6 * kStateChunkBytes));
  const std::uint64_t old_id = sender.next(3)->transfer_id;
  sender.start(3, pattern(6 * kStateChunkBytes));  // a new request restarts
  const std::uint64_t new_id = sender.next(3)->transfer_id;
  ASSERT_NE(old_id, new_id);
  EXPECT_FALSE(sender.ack(3, StateChunkAck{old_id, 0}));
  EXPECT_FALSE(sender.ack(3, StateChunkAck{new_id, 6}));
  EXPECT_FALSE(sender.ack(4, StateChunkAck{new_id, 0}));
  EXPECT_TRUE(sender.ack(3, StateChunkAck{new_id, 0}));
}

}  // namespace
}  // namespace bft::smr
