#ifndef DOMD_COMMON_DURABLE_FILE_H_
#define DOMD_COMMON_DURABLE_FILE_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace domd {

/// POSIX write helpers shared by the ingest log, the data store and the
/// bundle publisher. Each one reports failure as kIoError naming `what`
/// (or the path) and the errno text; none of them ignores an error.

/// Writes all of `bytes` to `fd`, resuming after short writes and EINTR.
Status WriteAll(int fd, std::string_view bytes, const std::string& what);

/// fsync(2) on `fd`.
Status FsyncFd(int fd, const std::string& what);

/// Opens directory `dir` and fsyncs it, so entries just created or renamed
/// in it survive a crash.
Status FsyncDirectory(const std::string& dir);

/// FsyncDirectory on the parent of `path` ("." when it has none).
Status FsyncParentDir(const std::string& path);

/// Creates or truncates `path`, writes `contents` and fsyncs it before
/// closing. The file is durable, but a crash mid-write leaves it torn: use
/// it for files a later rename publishes (e.g. inside a staging directory).
Status WriteFileSynced(const std::string& path, std::string_view contents);

/// Durable small-file replace: WriteFileSynced to <path>.tmp, rename it
/// over `path`, fsync the parent directory. A crash leaves either the old
/// or the new contents at `path`.
Status WriteFileDurably(const std::string& path, std::string_view contents);

}  // namespace domd

#endif  // DOMD_COMMON_DURABLE_FILE_H_
