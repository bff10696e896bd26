#include "storage/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace bft::storage {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("bft_ckpt_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Checkpoint make(std::uint64_t cid) {
    Checkpoint cp;
    cp.cid = cid;
    cp.snapshot = to_bytes("snapshot-" + std::to_string(cid));
    cp.integrity = crypto::sha256(cp.snapshot);
    return cp;
  }

  fs::path dir_;
};

TEST_F(CheckpointTest, EmptyDirectoryLoadsNothing) {
  auto store = CheckpointStore::open(dir_.string()).take();
  EXPECT_TRUE(store->load().empty());
  // Nothing older survives a first write, so its own cid is the retain
  // floor: 0 for a checkpoint at cid 0 (nothing may be pruned).
  const Result<std::uint64_t> floor = store->write(make(0));
  ASSERT_TRUE(floor.ok());
  EXPECT_EQ(floor.value(), 0u);
}

TEST_F(CheckpointTest, WriteLoadRoundTrip) {
  auto store = CheckpointStore::open(dir_.string()).take();
  ASSERT_TRUE(store->write(make(42)).ok());
  EXPECT_GT(store->last_written_bytes(), 0u);

  const auto loaded = store->load();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cid, 42u);
  EXPECT_EQ(loaded[0].snapshot, to_bytes("snapshot-42"));
  EXPECT_EQ(loaded[0].integrity, crypto::sha256(loaded[0].snapshot));
}

TEST_F(CheckpointTest, SlotsAlternateAndNewestLoadsFirst) {
  auto store = CheckpointStore::open(dir_.string()).take();
  ASSERT_TRUE(store->write(make(10)).ok());
  ASSERT_TRUE(store->write(make(20)).ok());
  const Result<std::uint64_t> floor = store->write(make(30));
  ASSERT_TRUE(floor.ok());

  // The third write evicted cid 10 (the oldest), never cid 20.
  const auto loaded = store->load();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].cid, 30u);
  EXPECT_EQ(loaded[1].cid, 20u);
  EXPECT_EQ(floor.value(), 20u);
}

TEST_F(CheckpointTest, SurvivesProcessRestart) {
  {
    auto store = CheckpointStore::open(dir_.string()).take();
    ASSERT_TRUE(store->write(make(7)).ok());
  }
  auto store = CheckpointStore::open(dir_.string()).take();
  const auto loaded = store->load();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cid, 7u);
}

TEST_F(CheckpointTest, CorruptSlotIsRejectedOtherSurvives) {
  auto store = CheckpointStore::open(dir_.string()).take();
  ASSERT_TRUE(store->write(make(10)).ok());
  ASSERT_TRUE(store->write(make(20)).ok());

  // Flip a payload byte in one slot; CRC must reject it and recovery falls
  // back to the surviving checkpoint instead of trusting damaged state.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(byte ^ 0xFF, f);
    std::fclose(f);
    break;  // corrupt exactly one slot
  }

  const auto loaded = store->load();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded[0].cid == 10u || loaded[0].cid == 20u);
}

TEST_F(CheckpointTest, TruncatedSlotIsRejected) {
  auto store = CheckpointStore::open(dir_.string()).take();
  ASSERT_TRUE(store->write(make(5)).ok());
  fs::path slot;
  for (const auto& entry : fs::directory_iterator(dir_)) slot = entry.path();
  ASSERT_FALSE(slot.empty());
  // A torn write leaves a short file: reject, don't misparse.
  fs::resize_file(slot, fs::file_size(slot) / 2);
  EXPECT_TRUE(store->load().empty());
}

TEST_F(CheckpointTest, EmptyAndGarbageSlotsAreRejected) {
  auto store = CheckpointStore::open(dir_.string()).take();
  {
    std::FILE* f = std::fopen((dir_ / "checkpoint-a.ckpt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);  // zero-byte file (crashed before any write)
  }
  {
    std::FILE* f = std::fopen((dir_ / "checkpoint-b.ckpt").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "not a checkpoint at all, definitely long enough";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  EXPECT_TRUE(store->load().empty());
  // The store still accepts new checkpoints over the wreckage.
  ASSERT_TRUE(store->write(make(3)).ok());
  ASSERT_EQ(store->load().size(), 1u);
}

TEST_F(CheckpointTest, RewriteAfterCorruptionReplacesBadSlot) {
  {
    auto store = CheckpointStore::open(dir_.string()).take();
    ASSERT_TRUE(store->write(make(10)).ok());
    ASSERT_TRUE(store->write(make(20)).ok());
  }
  // Corrupt one slot between runs. The store reads the slots at open, so
  // the reopened store counts it as empty (invalid counts as oldest) and the
  // next write must target it, leaving the surviving checkpoint untouched.
  for (const auto& entry : fs::directory_iterator(dir_)) {
    std::FILE* f = std::fopen(entry.path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc(0x00, f);  // clobber the magic
    std::fclose(f);
    break;
  }
  auto store = CheckpointStore::open(dir_.string()).take();
  ASSERT_TRUE(store->write(make(30)).ok());
  const auto loaded = store->load();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].cid, 30u);
}

TEST_F(CheckpointTest, ReopenedStoreReturnsTheSameFloors) {
  // write() reads no file: it keeps the slot cids read at open. A store
  // reopened before every write must choose the same victims and return the
  // same retain floors as one store that wrote them all.
  const std::uint64_t cids[] = {10, 20, 30, 40, 50};
  std::vector<std::uint64_t> kept_open;
  {
    auto store = CheckpointStore::open(dir_.string()).take();
    for (const std::uint64_t cid : cids) {
      kept_open.push_back(store->write(make(cid)).value());
    }
  }
  fs::remove_all(dir_);
  std::vector<std::uint64_t> reopened;
  for (const std::uint64_t cid : cids) {
    auto store = CheckpointStore::open(dir_.string()).take();
    reopened.push_back(store->write(make(cid)).value());
  }
  EXPECT_EQ(kept_open, reopened);
  EXPECT_EQ(kept_open, (std::vector<std::uint64_t>{10, 10, 20, 30, 40}));
}

}  // namespace
}  // namespace bft::storage
