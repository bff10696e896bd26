#include "storage/store.hpp"

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "crypto/sha256.hpp"

namespace bft::storage {
namespace {

namespace fs = std::filesystem;

class NodeStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("bft_store_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  StoreOptions options(std::uint32_t node_id = 3) {
    StoreOptions o;
    o.directory = dir_.string();
    o.node_id = node_id;
    o.fsync = FsyncPolicy::off;
    return o;
  }

  fs::path dir_;
};

TEST_F(NodeStoreTest, StampsDirectoryAndReopens) {
  { auto store = NodeStore::open(options(3)).take(); }
  EXPECT_TRUE(fs::exists(dir_ / "NODE"));
  // Same node id reopens fine.
  auto store = NodeStore::open(options(3));
  EXPECT_TRUE(store.ok());
}

TEST_F(NodeStoreTest, RefusesAnotherNodesDataDir) {
  { auto store = NodeStore::open(options(3)).take(); }
  const auto wrong = NodeStore::open(options(4));
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.error().find("node 4"), std::string::npos);
  EXPECT_NE(wrong.error().find("refusing"), std::string::npos);
}

TEST_F(NodeStoreTest, FailedStampWriteFailsOpen) {
  // The stamp is replaced through NODE.tmp; a directory in its way makes the
  // write fail, and the store must not open unstamped.
  fs::create_directories(dir_ / "NODE.tmp");
  const auto store = NodeStore::open(options(3));
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.error().find("NODE.tmp"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir_ / "NODE"));
}

TEST_F(NodeStoreTest, AppendReplayAndMetrics) {
  obs::MetricsRegistry metrics;
  StoreOptions o = options();
  o.metrics = &metrics;
  {
    auto store = NodeStore::open(std::move(o)).take();
    for (std::uint64_t cid = 1; cid <= 12; ++cid) {
      std::string value = "v";
      value += std::to_string(cid);
      ASSERT_TRUE(store->append_decision(cid, to_bytes(value)).is_ok());
    }
    EXPECT_EQ(store->wal_tail_cid(), 12u);
  }
  StoreOptions o2 = options();
  o2.metrics = &metrics;
  auto store = NodeStore::open(std::move(o2)).take();
  std::uint64_t last = 0;
  const std::uint64_t n =
      store->replay(0, [&](std::uint64_t cid, ByteView) { last = cid; });
  EXPECT_EQ(n, 12u);
  EXPECT_EQ(last, 12u);
  EXPECT_EQ(store->replayed_records(), 12u);
  EXPECT_EQ(metrics.counter("storage.replayed_blocks").value(), 12u);
  EXPECT_EQ(metrics.counter("storage.wal_appends").value(), 12u);
}

TEST_F(NodeStoreTest, GivenRegistryHoldsEveryStorageInstrument) {
  // The store and its WAL record into the registry they are given, never
  // into one of their own.
  obs::MetricsRegistry metrics;
  StoreOptions o = options();
  o.metrics = &metrics;
  auto store = NodeStore::open(std::move(o)).take();
  std::set<std::string> names;
  for (const auto& entry : metrics.entries()) names.insert(entry.name);
  for (const char* name :
       {"storage.wal_appends", "storage.fsync_ns", "storage.replayed_blocks",
        "storage.truncated_tail_bytes", "storage.checkpoint_bytes"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

TEST_F(NodeStoreTest, CheckpointWritePrunesWalAndCountsBytes) {
  obs::MetricsRegistry metrics;
  StoreOptions o = options();
  o.metrics = &metrics;
  o.wal_segment_bytes = 128;
  auto store = NodeStore::open(std::move(o)).take();
  for (std::uint64_t cid = 1; cid <= 60; ++cid) {
    ASSERT_TRUE(store->append_decision(cid, Bytes(16, 0xAB)).is_ok());
  }
  const std::size_t before = store->wal().segment_count();
  ASSERT_GT(before, 3u);

  Checkpoint cp;
  cp.cid = 40;
  cp.snapshot = to_bytes("app-state");
  cp.integrity = crypto::sha256(cp.snapshot);
  ASSERT_TRUE(store->write_checkpoint(cp).is_ok());
  Checkpoint cp2 = cp;
  cp2.cid = 50;
  ASSERT_TRUE(store->write_checkpoint(cp2).is_ok());

  // Retention keeps the WAL suffix needed by the OLDER slot (cid 40).
  EXPECT_LT(store->wal().segment_count(), before);
  EXPECT_EQ(store->wal().replay(40, [](std::uint64_t, ByteView) {}), 20u);
  EXPECT_GT(metrics.counter("storage.checkpoint_bytes").value(), 0u);
  ASSERT_EQ(store->load_checkpoints().size(), 2u);
  EXPECT_EQ(store->load_checkpoints()[0].cid, 50u);
}

TEST_F(NodeStoreTest, FailedCheckpointWriteKeepsTheWal) {
  StoreOptions o = options();
  o.wal_segment_bytes = 128;
  auto store = NodeStore::open(std::move(o)).take();
  for (std::uint64_t cid = 1; cid <= 60; ++cid) {
    ASSERT_TRUE(store->append_decision(cid, Bytes(16, 0xAB)).is_ok());
  }
  const std::size_t before = store->wal().segment_count();

  // A directory where the temp file must go fails the checkpoint write; the
  // WAL behind it must then stay whole.
  fs::create_directories(dir_ / "checkpoint-a.ckpt.tmp");
  Checkpoint cp;
  cp.cid = 40;
  cp.snapshot = to_bytes("app-state");
  cp.integrity = crypto::sha256(cp.snapshot);
  EXPECT_FALSE(store->write_checkpoint(cp).is_ok());
  EXPECT_EQ(store->wal().segment_count(), before);
  EXPECT_EQ(store->wal().replay(0, [](std::uint64_t, ByteView) {}), 60u);
  EXPECT_TRUE(store->load_checkpoints().empty());
}

}  // namespace
}  // namespace bft::storage
