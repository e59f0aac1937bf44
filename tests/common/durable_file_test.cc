#include "common/durable_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace domd {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/domd_durable_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(DurableFileTest, WriteFileSyncedTruncatesAndWritesEveryByte) {
  const std::string path = FreshDir("synced") + "/file";
  ASSERT_TRUE(WriteFileSynced(path, "a much longer first version").ok());
  const std::string bytes("second\0version", 14);
  ASSERT_TRUE(WriteFileSynced(path, bytes).ok());
  EXPECT_EQ(ReadAll(path), bytes);
}

TEST(DurableFileTest, WriteFileDurablyReplacesAndLeavesNoTempFile) {
  const std::string path = FreshDir("durably") + "/table.csv";
  ASSERT_TRUE(WriteFileDurably(path, "old\n").ok());
  ASSERT_TRUE(WriteFileDurably(path, "new\n").ok());
  EXPECT_EQ(ReadAll(path), "new\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(DurableFileTest, FailuresAreIoErrorsNotIgnored) {
  const std::string missing = FreshDir("missing") + "/no/such/dir";
  EXPECT_EQ(FsyncDirectory(missing).code(), StatusCode::kIoError);
  EXPECT_EQ(FsyncParentDir(missing + "/file").code(), StatusCode::kIoError);
  EXPECT_EQ(WriteFileSynced(missing + "/file", "x").code(),
            StatusCode::kIoError);
  EXPECT_EQ(WriteFileDurably(missing + "/file", "x").code(),
            StatusCode::kIoError);
  EXPECT_EQ(WriteAll(-1, "x", "bad fd").code(), StatusCode::kIoError);
  EXPECT_EQ(FsyncFd(-1, "bad fd").code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace domd
