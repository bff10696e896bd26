// WAL behaviour when fsync fails. A real disk error cannot be provoked
// without privileges, so this binary defines its own fsync: the storage
// library is linked statically into the executable, so its fsync calls bind
// to the definition below, which fails on demand and otherwise passes
// through to the system call. It lives in its own binary so no other test
// runs against the interposed fsync.
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "storage/wal.hpp"

namespace {

enum class FailMode { none, every_fsync, directories };
std::atomic<FailMode> g_fail{FailMode::none};

bool is_directory(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

extern "C" int fsync(int fd) {
  const FailMode mode = g_fail.load();
  if (mode == FailMode::every_fsync ||
      (mode == FailMode::directories && is_directory(fd))) {
    errno = EIO;
    return -1;
  }
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace bft::storage {
namespace {

namespace fs = std::filesystem;

class WalFsyncFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("bft_wal_fsync_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    g_fail = FailMode::none;
    fs::remove_all(dir_);
  }

  std::unique_ptr<WriteAheadLog> open(FsyncPolicy policy) {
    WalOptions options;
    options.directory = dir_.string();
    options.fsync = policy;
    return WriteAheadLog::open(std::move(options)).take();
  }

  static Bytes value() { return to_bytes("decision"); }

  fs::path dir_;
};

TEST_F(WalFsyncFaultTest, AlwaysAppendReturnsTheFsyncFailure) {
  auto wal = open(FsyncPolicy::always);
  ASSERT_TRUE(wal->append(1, value()).is_ok());
  g_fail = FailMode::every_fsync;
  const Status failed = wal->append(2, value());
  ASSERT_FALSE(failed.is_ok());
  EXPECT_NE(failed.error().find("fsync"), std::string::npos) << failed.error();
  // The failure is final: a later fsync that works cannot make the record
  // durable after the kernel dropped its pages.
  g_fail = FailMode::none;
  EXPECT_EQ(wal->append(3, value()).error(), failed.error());
  EXPECT_EQ(wal->flush().error(), failed.error());
}

TEST_F(WalFsyncFaultTest, GroupFlusherFailureSurfacesOnNextAppendAndFlush) {
  auto wal = open(FsyncPolicy::group);
  ASSERT_TRUE(wal->append(1, value()).is_ok());
  g_fail = FailMode::every_fsync;
  // Appends under `group` only write; the flusher's failed fsync comes back
  // through a later append.
  Status status = Status::ok();
  std::uint64_t cid = 2;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (status.is_ok() && std::chrono::steady_clock::now() < deadline) {
    status = wal->append(cid++, value());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.error().find("group fsync"), std::string::npos)
      << status.error();
  g_fail = FailMode::none;
  EXPECT_EQ(wal->append(cid, value()).error(), status.error());
  EXPECT_EQ(wal->flush().error(), status.error());
}

TEST_F(WalFsyncFaultTest, DirectoryFsyncFailureFailsSegmentCreation) {
  auto wal = open(FsyncPolicy::group);
  g_fail = FailMode::directories;
  const Status failed = wal->append(1, value());
  ASSERT_FALSE(failed.is_ok());
  EXPECT_NE(failed.error().find("directory"), std::string::npos)
      << failed.error();
  // The half-made segment is not adopted or left behind.
  EXPECT_EQ(wal->segment_count(), 0u);
  EXPECT_EQ(wal->tail_cid(), 0u);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ADD_FAILURE() << "left behind: " << entry.path();
  }
}

TEST_F(WalFsyncFaultTest, OffPolicyNeverSyncs) {
  auto wal = open(FsyncPolicy::off);
  g_fail = FailMode::every_fsync;
  EXPECT_TRUE(wal->append(1, value()).is_ok());
  EXPECT_TRUE(wal->flush().is_ok());
}

}  // namespace
}  // namespace bft::storage
