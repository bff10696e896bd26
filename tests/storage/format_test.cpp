// Pins the on-disk bytes of a WAL segment and a checkpoint slot (DESIGN.md
// §9), so a data directory written by an earlier build still opens. The
// expected images are spelled out as hex, independent of the codec:
//
//   segment    = "BFTWAL1\n" | u32 len | u32 crc32 | u64 cid | value
//   checkpoint = "BFTCKPT1" | u32 len | u32 crc32 |
//                u64 cid | 32-byte digest | u32 len | snapshot
#include <filesystem>
#include <fstream>
#include <iterator>

#include <gtest/gtest.h>

#include "storage/checkpoint.hpp"
#include "storage/wal.hpp"

namespace bft::storage {
namespace {

namespace fs = std::filesystem;

// cid 7, value "abc".
constexpr const char* kSegmentHex =
    "42465457414c310a"                  // "BFTWAL1\n"
    "0b000000" "bf3cd988"               // len 11, crc32
    "0700000000000000" "616263";        // cid 7, "abc"
constexpr const char* kSegmentName = "wal-00000000000000000007.seg";

// cid 9, digest bytes 0..31, snapshot "snap".
constexpr const char* kCheckpointHex =
    "424654434b505431"                  // "BFTCKPT1"
    "30000000" "a7cb5ca5"               // len 48, crc32
    "0900000000000000"                  // cid 9
    "000102030405060708090a0b0c0d0e0f"  // digest
    "101112131415161718191a1b1c1d1e1f"
    "04000000" "736e6170";              // snapshot "snap"

class FormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("bft_format_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static Checkpoint checkpoint() {
    Checkpoint cp;
    cp.cid = 9;
    for (std::size_t i = 0; i < cp.integrity.size(); ++i) {
      cp.integrity[i] = static_cast<std::uint8_t>(i);
    }
    cp.snapshot = to_bytes("snap");
    return cp;
  }

  static std::string file_hex(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    const Bytes contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    return to_hex(contents);
  }

  static void write_hex(const fs::path& path, const char* hex) {
    const Bytes contents = from_hex(hex);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(contents.data()),
              static_cast<std::streamsize>(contents.size()));
  }

  fs::path dir_;
};

TEST_F(FormatTest, WalSegmentBytesArePinned) {
  {
    WalOptions options;
    options.directory = dir_.string();
    options.fsync = FsyncPolicy::off;
    auto wal = WriteAheadLog::open(std::move(options)).take();
    ASSERT_TRUE(wal->append(7, to_bytes("abc")).is_ok());
  }
  EXPECT_EQ(file_hex(dir_ / kSegmentName), kSegmentHex);
}

TEST_F(FormatTest, CheckpointSlotBytesArePinned) {
  auto store = CheckpointStore::open(dir_.string()).take();
  ASSERT_TRUE(store->write(checkpoint()).ok());
  EXPECT_EQ(file_hex(dir_ / "checkpoint-a.ckpt"), kCheckpointHex);
  EXPECT_FALSE(fs::exists(dir_ / "checkpoint-b.ckpt"));
}

TEST_F(FormatTest, PinnedImagesOpen) {
  write_hex(dir_ / kSegmentName, kSegmentHex);
  write_hex(dir_ / "checkpoint-a.ckpt", kCheckpointHex);

  WalOptions options;
  options.directory = dir_.string();
  options.fsync = FsyncPolicy::off;
  auto wal = WriteAheadLog::open(std::move(options)).take();
  EXPECT_EQ(wal->truncated_tail_bytes(), 0u);
  EXPECT_EQ(wal->tail_cid(), 7u);
  std::vector<std::pair<std::uint64_t, Bytes>> replayed;
  EXPECT_EQ(wal->replay(6, [&](std::uint64_t cid, ByteView value) {
              replayed.emplace_back(cid, Bytes(value.begin(), value.end()));
            }),
            1u);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, 7u);
  EXPECT_EQ(replayed[0].second, to_bytes("abc"));

  auto store = CheckpointStore::open(dir_.string()).take();
  const auto loaded = store->load();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].cid, 9u);
  EXPECT_EQ(loaded[0].integrity, checkpoint().integrity);
  EXPECT_EQ(loaded[0].snapshot, to_bytes("snap"));
}

}  // namespace
}  // namespace bft::storage
