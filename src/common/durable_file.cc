#include "common/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace domd {

Status WriteAll(int fd, std::string_view bytes, const std::string& what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write failed for " + what + ": " +
                             std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status FsyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    return Status::IoError("fsync failed for " + what + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir for fsync failed: " + dir + ": " +
                           std::strerror(errno));
  }
  const Status synced = FsyncFd(fd, "dir " + dir);
  ::close(fd);
  return synced;
}

Status FsyncParentDir(const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  return FsyncDirectory(dir.empty() ? "." : dir);
}

Status WriteFileSynced(const std::string& path, std::string_view contents) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  Status written = WriteAll(fd, contents, path);
  if (written.ok()) written = FsyncFd(fd, path);
  if (::close(fd) != 0 && written.ok()) {
    written = Status::IoError("close failed for " + path + ": " +
                              std::strerror(errno));
  }
  return written;
}

Status WriteFileDurably(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  DOMD_RETURN_IF_ERROR(WriteFileSynced(tmp, contents));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp + " into place: " +
                           std::strerror(errno));
  }
  return FsyncParentDir(path);
}

}  // namespace domd
