#include "storage/wal.hpp"

#include <cstdio>
#include <filesystem>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "storage/crc32.hpp"

namespace bft::storage {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("bft_wal_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalOptions options(FsyncPolicy fsync = FsyncPolicy::off) {
    WalOptions o;
    o.directory = dir_.string();
    o.fsync = fsync;
    return o;
  }

  static Bytes value_for(std::uint64_t cid, std::size_t size = 16) {
    Bytes v(size);
    for (std::size_t i = 0; i < size; ++i) {
      v[i] = static_cast<std::uint8_t>(cid * 31 + i);
    }
    return v;
  }

  /// All segment files, lexicographically sorted (== cid order).
  std::vector<fs::path> segment_files() const {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".seg") out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  fs::path dir_;
};

TEST_F(WalTest, Crc32MatchesKnownVector) {
  const Bytes check = to_bytes("123456789");
  EXPECT_EQ(crc32_ieee(check), 0xCBF43926u);
  // Streaming updates compose to the one-shot value.
  const std::uint32_t partial = crc32_ieee_update(0, ByteView(check.data(), 4));
  EXPECT_EQ(crc32_ieee_update(partial, ByteView(check.data() + 4, 5)),
            0xCBF43926u);
  EXPECT_EQ(crc32_ieee(ByteView{}), 0u);
}

TEST_F(WalTest, ParseFsyncPolicy) {
  EXPECT_EQ(parse_fsync_policy("always").value(), FsyncPolicy::always);
  EXPECT_EQ(parse_fsync_policy("group").value(), FsyncPolicy::group);
  EXPECT_EQ(parse_fsync_policy("off").value(), FsyncPolicy::off);
  EXPECT_FALSE(parse_fsync_policy("sometimes").ok());
  EXPECT_STREQ(fsync_policy_name(FsyncPolicy::group), "group");
}

TEST_F(WalTest, AppendReplayRoundTrip) {
  auto wal = WriteAheadLog::open(options()).take();
  for (std::uint64_t cid = 1; cid <= 100; ++cid) {
    ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
  }
  EXPECT_EQ(wal->tail_cid(), 100u);
  EXPECT_EQ(wal->appended_records(), 100u);

  std::uint64_t next = 1;
  const std::uint64_t n =
      wal->replay(0, [&](std::uint64_t cid, ByteView value) {
        EXPECT_EQ(cid, next++);
        const Bytes expect = value_for(cid);
        ASSERT_EQ(value.size(), expect.size());
        EXPECT_TRUE(std::equal(value.begin(), value.end(), expect.begin()));
      });
  EXPECT_EQ(n, 100u);

  // Replay from a mid-point only emits the suffix.
  std::uint64_t count = 0;
  EXPECT_EQ(wal->replay(90, [&](std::uint64_t, ByteView) { ++count; }), 10u);
  EXPECT_EQ(count, 10u);
}

TEST_F(WalTest, ReopenPreservesLog) {
  {
    auto wal = WriteAheadLog::open(options()).take();
    for (std::uint64_t cid = 1; cid <= 40; ++cid) {
      ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
    }
  }
  auto wal = WriteAheadLog::open(options()).take();
  EXPECT_EQ(wal->tail_cid(), 40u);
  EXPECT_EQ(wal->truncated_tail_bytes(), 0u);
  EXPECT_EQ(wal->replay(0, [](std::uint64_t, ByteView) {}), 40u);
  // Appends continue where the log left off; duplicates are skipped.
  EXPECT_TRUE(wal->append(40, value_for(40)).is_ok());
  EXPECT_TRUE(wal->append(41, value_for(41)).is_ok());
  EXPECT_EQ(wal->appended_records(), 1u);
  EXPECT_EQ(wal->tail_cid(), 41u);
}

TEST_F(WalTest, RotatesSegmentsAndReplaysAcrossThem) {
  WalOptions o = options();
  o.segment_bytes = 256;  // a handful of 32-byte frames per segment
  auto wal = WriteAheadLog::open(std::move(o)).take();
  for (std::uint64_t cid = 1; cid <= 64; ++cid) {
    ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
  }
  EXPECT_GT(wal->segment_count(), 3u);
  EXPECT_EQ(wal->replay(0, [](std::uint64_t, ByteView) {}), 64u);
}

TEST_F(WalTest, TornTailIsTruncatedOnOpen) {
  {
    auto wal = WriteAheadLog::open(options()).take();
    for (std::uint64_t cid = 1; cid <= 10; ++cid) {
      ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
    }
  }
  // Simulate a power failure mid-write: a partial frame header at the tail.
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  const auto full_size = fs::file_size(files[0]);
  {
    std::FILE* f = std::fopen(files[0].c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t torn[5] = {0x20, 0x00, 0x00, 0x00, 0x99};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }

  auto wal = WriteAheadLog::open(options()).take();
  EXPECT_EQ(wal->truncated_tail_bytes(), 5u);
  EXPECT_EQ(wal->tail_cid(), 10u);
  EXPECT_EQ(fs::file_size(files[0]), full_size);  // trimmed back to clean end
  EXPECT_EQ(wal->replay(0, [](std::uint64_t, ByteView) {}), 10u);
  EXPECT_TRUE(wal->append(11, value_for(11)).is_ok());
  EXPECT_EQ(wal->tail_cid(), 11u);
}

TEST_F(WalTest, FlippedCrcByteCutsLogAtCorruptRecord) {
  {
    auto wal = WriteAheadLog::open(options()).take();
    for (std::uint64_t cid = 1; cid <= 10; ++cid) {
      ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
    }
  }
  // Flip one payload byte inside the 3rd frame (frames are 8 magic +
  // n * (8 header + 8 cid + 16 value) bytes in).
  const auto files = segment_files();
  ASSERT_EQ(files.size(), 1u);
  {
    std::FILE* f = std::fopen(files[0].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8 + 2 * 32 + 20, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(byte ^ 0xFF, f);
    std::fclose(f);
  }

  auto wal = WriteAheadLog::open(options()).take();
  EXPECT_GT(wal->truncated_tail_bytes(), 0u);
  EXPECT_EQ(wal->tail_cid(), 2u);  // clean prefix survives, rest discarded
  std::uint64_t next = 1;
  EXPECT_EQ(wal->replay(0,
                        [&](std::uint64_t cid, ByteView) {
                          EXPECT_EQ(cid, next++);
                        }),
            2u);
}

TEST_F(WalTest, CorruptionInEarlierSegmentDropsLaterSegments) {
  WalOptions o = options();
  o.segment_bytes = 128;
  {
    auto wal = WriteAheadLog::open(std::move(o)).take();
    for (std::uint64_t cid = 1; cid <= 30; ++cid) {
      ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
    }
  }
  auto files = segment_files();
  ASSERT_GT(files.size(), 2u);
  {
    // Corrupt the first record of the second segment.
    std::FILE* f = std::fopen(files[1].c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8 + 10, SEEK_SET), 0);
    std::fputc(0xAA, f);
    std::fputc(0x55, f);
    std::fclose(f);
  }

  WalOptions o2 = options();
  o2.segment_bytes = 128;
  auto wal = WriteAheadLog::open(std::move(o2)).take();
  // Segments after the corrupt one are deleted: refusing to expose records
  // beyond a hole keeps replay equal to a clean history prefix.
  EXPECT_LE(wal->segment_count(), 2u);
  const std::uint64_t replayed =
      wal->replay(0, [](std::uint64_t, ByteView) {});
  EXPECT_GT(replayed, 0u);
  EXPECT_LT(replayed, 30u);
  EXPECT_EQ(wal->tail_cid(), replayed);
  EXPECT_EQ(segment_files().size(), wal->segment_count());
}

TEST_F(WalTest, ReplayStopsAtCidGap) {
  auto open_small = [this] {
    WalOptions o = options();
    o.segment_bytes = 128;  // a few records per segment
    return WriteAheadLog::open(std::move(o)).take();
  };
  auto wal = open_small();
  for (std::uint64_t cid = 1; cid <= 3; ++cid) {
    ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
  }
  // A state-transfer jump leaves a gap; the log accepts it but replay
  // treats the gap as the end of the contiguous prefix, also when later
  // segments hold more records.
  for (std::uint64_t cid = 10; cid <= 20; ++cid) {
    ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
  }
  EXPECT_EQ(wal->tail_cid(), 20u);
  ASSERT_GT(wal->segment_count(), 2u);
  for (int restart = 0; restart < 2; ++restart) {
    std::vector<std::uint64_t> seen;
    const auto record = [&seen](std::uint64_t cid, ByteView value) {
      EXPECT_EQ(Bytes(value.begin(), value.end()), value_for(cid));
      seen.push_back(cid);
    };
    EXPECT_EQ(wal->replay(0, record), 3u);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
    // From just before the gap the suffix is contiguous again, across
    // segments.
    seen.clear();
    EXPECT_EQ(wal->replay(9, record), 11u);
    ASSERT_EQ(seen.size(), 11u);
    EXPECT_EQ(seen.front(), 10u);
    EXPECT_EQ(seen.back(), 20u);
    wal.reset();
    wal = open_small();  // the same from disk after a restart
  }
}

TEST_F(WalTest, PruneBelowDropsWholeColdSegments) {
  WalOptions o = options();
  o.segment_bytes = 128;
  auto wal = WriteAheadLog::open(std::move(o)).take();
  for (std::uint64_t cid = 1; cid <= 40; ++cid) {
    ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
  }
  const std::size_t before = wal->segment_count();
  ASSERT_GT(before, 2u);
  wal->prune_below(20);
  EXPECT_LT(wal->segment_count(), before);
  EXPECT_EQ(segment_files().size(), wal->segment_count());
  // The suffix from the prune point is still fully replayable.
  EXPECT_EQ(wal->replay(19, [](std::uint64_t, ByteView) {}), 21u);
  EXPECT_EQ(wal->tail_cid(), 40u);
}

TEST_F(WalTest, GroupCommitFlushAndReopen) {
  {
    auto wal = WriteAheadLog::open(options(FsyncPolicy::group)).take();
    for (std::uint64_t cid = 1; cid <= 20; ++cid) {
      ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
    }
    ASSERT_TRUE(wal->flush().is_ok());
  }
  auto wal = WriteAheadLog::open(options(FsyncPolicy::group)).take();
  EXPECT_EQ(wal->tail_cid(), 20u);
  EXPECT_EQ(wal->replay(0, [](std::uint64_t, ByteView) {}), 20u);
}

TEST_F(WalTest, AlwaysPolicyRecordsFsyncLatency) {
  obs::MetricsRegistry metrics;
  WalOptions o = options(FsyncPolicy::always);
  o.metrics = &metrics;
  auto wal = WriteAheadLog::open(std::move(o)).take();
  for (std::uint64_t cid = 1; cid <= 5; ++cid) {
    ASSERT_TRUE(wal->append(cid, value_for(cid)).is_ok());
  }
  EXPECT_EQ(metrics.counter("storage.wal_appends").value(), 5u);
  EXPECT_EQ(metrics.histogram("storage.fsync_ns").count(), 5u);
}

TEST_F(WalTest, EmptyDirectoryOpensEmpty) {
  auto wal = WriteAheadLog::open(options()).take();
  EXPECT_EQ(wal->tail_cid(), 0u);
  EXPECT_EQ(wal->segment_count(), 0u);
  EXPECT_EQ(wal->replay(0, [](std::uint64_t, ByteView) {}), 0u);
}

}  // namespace
}  // namespace bft::storage
