#include "common/fileio.h"

#include <gtest/gtest.h>

#include <string>

namespace autoglobe {
namespace {

std::string TempDir(const char* name) {
  std::string dir = ::testing::TempDir() + "ag_fileio_" + name;
  EXPECT_TRUE(MakeDirectories(dir).ok());
  auto entries = ListDirectory(dir);
  if (entries.ok()) {
    for (const std::string& entry : *entries) {
      EXPECT_TRUE(RemoveFileIfExists(dir + "/" + entry).ok());
    }
  }
  return dir;
}

TEST(FileIoTest, AtomicFileWritesAtOffsetsAndCommits) {
  const std::string dir = TempDir("commit");
  const std::string path = dir + "/out.bin";
  auto file = AtomicFile::Create(path);
  ASSERT_TRUE(file.ok()) << file.status();
  // The tail first, then the head, as the snapshot writer does.
  ASSERT_TRUE(file->WriteAt(4, "tail").ok());
  ASSERT_TRUE(file->WriteAt(0, "head").ok());
  char back[4];
  ASSERT_TRUE(file->ReadAt(4, sizeof(back), back).ok());
  EXPECT_EQ(std::string(back, sizeof(back)), "tail");
  EXPECT_EQ(file->ReadAt(6, 4, back).code(), StatusCode::kIoError);
  EXPECT_FALSE(ReadFileToString(path).ok()) << "visible before Commit";
  ASSERT_TRUE(file->Commit().ok());
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(*contents, "headtail");
  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries, std::vector<std::string>{"out.bin"});
}

TEST(FileIoTest, UncommittedAtomicFileLeavesTheTargetAndNoTemporary) {
  const std::string dir = TempDir("abandon");
  const std::string path = dir + "/out.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "old").ok());
  {
    auto file = AtomicFile::Create(path);
    ASSERT_TRUE(file.ok()) << file.status();
    ASSERT_TRUE(file->WriteAt(0, "new, never committed").ok());
  }
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_EQ(*contents, "old");
  auto entries = ListDirectory(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries, std::vector<std::string>{"out.bin"});
}

TEST(FileIoTest, ReadFileToStringReadsPastASizeFstatDoesNotKnow) {
  // procfs reports size 0 for this file, yet it has contents.
  auto status = ReadFileToString("/proc/self/status");
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_NE(status->find("Name:"), std::string::npos);

  auto missing = ReadFileToString("/nonexistent/file");
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST(FileIoTest, ReadOnlyFileReadsAtOffsetsWithinItsSize) {
  const std::string path = TempDir("read") + "/in.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "0123456789").ok());
  auto file = ReadOnlyFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file->size(), 10u);
  char out[3];
  ASSERT_TRUE(file->ReadAt(7, sizeof(out), out).ok());
  EXPECT_EQ(std::string(out, sizeof(out)), "789");
  EXPECT_EQ(file->ReadAt(8, sizeof(out), out).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace autoglobe
