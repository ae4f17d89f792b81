#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "util/file_io.h"

namespace ssjoin {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(FileIoTest, FailedSaveLeavesPreviousFileReadable) {
  const std::string path = TempPath("atomic_write.bin");
  const std::string original = std::string("first version\0bytes", 19);
  ASSERT_TRUE(WriteFileAtomic(path, original).ok());

  // Force the rewrite to fail mid-write: a directory squats on the tmp
  // path, so the open of `<path>.tmp` errors out. The previous good file
  // must be untouched — the whole point of tmp-then-rename over opening
  // the destination with ios::trunc.
  ASSERT_EQ(::mkdir((path + ".tmp").c_str(), 0755), 0);
  Status failed = WriteFileAtomic(path, std::string(4096, 'x'));
  ASSERT_FALSE(failed.ok());
  ASSERT_EQ(::rmdir((path + ".tmp").c_str()), 0);

  Result<std::string> survivor = ReadFileToString(path);
  ASSERT_TRUE(survivor.ok()) << survivor.status().ToString();
  EXPECT_EQ(survivor.value(), original);
}

TEST(FileIoTest, ErrorsCarryErrnoContext) {
  // Operators need to tell ENOSPC from EACCES from ENOENT: I/O statuses
  // must embed strerror(errno), not just the path.
  Result<std::string> missing = ReadFileToString(TempPath("enoent.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find(std::strerror(ENOENT)),
            std::string::npos)
      << missing.status().ToString();

  const std::string blocked = TempPath("blocked.bin");
  ASSERT_EQ(::mkdir((blocked + ".tmp").c_str(), 0755), 0);
  Status save = WriteFileAtomic(blocked, "");
  ASSERT_FALSE(save.ok());
  // open(O_WRONLY) on a directory fails EISDIR on Linux.
  EXPECT_NE(save.message().find(std::strerror(EISDIR)), std::string::npos)
      << save.ToString();
  ASSERT_EQ(::rmdir((blocked + ".tmp").c_str()), 0);
}

}  // namespace
}  // namespace ssjoin
