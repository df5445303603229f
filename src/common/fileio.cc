#include "common/fileio.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace autoglobe {

namespace {

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IoError(
      StrFormat("%s %s: %s", op, path.c_str(), strerror(errno)));
}

/// fsync on a directory fd makes the rename itself durable. Some
/// filesystems refuse to fsync a directory; that is not a torn-file
/// risk, so those errors are ignored.
void SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// pread/pwrite until `n` bytes moved; a pread that hits end of file
/// first is an error (the callers read ranges they know exist).
Status ReadFully(int fd, const std::string& path, uint64_t offset,
                 size_t n, char* out) {
  while (n > 0) {
    ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read", path);
    }
    if (got == 0) {
      return Status::IoError(StrFormat(
          "read %s: file ends before offset %llu", path.c_str(),
          static_cast<unsigned long long>(offset + n)));
    }
    out += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

Status WriteFully(int fd, const std::string& path, uint64_t offset,
                  std::string_view bytes) {
  const char* cursor = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t wrote = ::pwrite(fd, cursor, left, static_cast<off_t>(offset));
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    cursor += wrote;
    offset += static_cast<uint64_t>(wrote);
    left -= static_cast<size_t>(wrote);
  }
  return Status::OK();
}

}  // namespace

Result<AtomicFile> AtomicFile::Create(const std::string& path) {
  std::string tmp =
      StrFormat("%s.tmp.%d", path.c_str(), static_cast<int>(::getpid()));
  int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  return AtomicFile(path, std::move(tmp), fd);
}

AtomicFile::AtomicFile(AtomicFile&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_(std::move(other.tmp_)),
      fd_(other.fd_) {
  other.fd_ = -1;
}

AtomicFile::~AtomicFile() {
  if (fd_ < 0) return;
  ::close(fd_);
  ::unlink(tmp_.c_str());
}

Status AtomicFile::WriteAt(uint64_t offset, std::string_view bytes) {
  return WriteFully(fd_, tmp_, offset, bytes);
}

Status AtomicFile::ReadAt(uint64_t offset, size_t n, char* out) const {
  return ReadFully(fd_, tmp_, offset, n, out);
}

Status AtomicFile::Commit() {
  // Until the descriptor is handed over, the destructor removes the
  // temporary.
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", tmp_);
  const int fd = std::exchange(fd_, -1);
  if (::close(fd) != 0) {
    Status status = ErrnoStatus("close", tmp_);
    ::unlink(tmp_.c_str());
    return status;
  }
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    Status status = ErrnoStatus("rename", path_);
    ::unlink(tmp_.c_str());
    return status;
  }
  SyncDir(ParentDir(path_));
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  AG_ASSIGN_OR_RETURN(AtomicFile file, AtomicFile::Create(path));
  AG_RETURN_IF_ERROR(file.WriteAt(0, contents));
  return file.Commit();
}

Result<ReadOnlyFile> ReadOnlyFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = ErrnoStatus("stat", path);
    ::close(fd);
    return status;
  }
  return ReadOnlyFile(path, fd, static_cast<uint64_t>(st.st_size));
}

ReadOnlyFile::ReadOnlyFile(ReadOnlyFile&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
}

ReadOnlyFile::~ReadOnlyFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status ReadOnlyFile::ReadAt(uint64_t offset, size_t n, char* out) const {
  return ReadFully(fd_, path_, offset, n, out);
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = ErrnoStatus("stat", path);
    ::close(fd);
    return status;
  }
  // One allocation at the file's length. Once it is full, reads go to
  // a small probe, so only bytes fstat did not count (a pipe, a file
  // that grew since) make the string grow.
  std::string out(static_cast<size_t>(st.st_size), '\0');
  size_t filled = 0;
  char probe[1 << 12];
  for (;;) {
    const bool full = filled == out.size();
    ssize_t got = full ? ::read(fd, probe, sizeof(probe))
                       : ::read(fd, out.data() + filled, out.size() - filled);
    if (got < 0) {
      if (errno == EINTR) continue;
      Status status = ErrnoStatus("read", path);
      ::close(fd);
      return status;
    }
    if (got == 0) break;
    if (full) out.append(probe, static_cast<size_t>(got));
    filled += static_cast<size_t>(got);
  }
  ::close(fd);
  out.resize(filled);
  return out;
}

Status MakeDirectories(const std::string& path) {
  if (path.empty()) return Status::OK();
  std::string partial;
  size_t start = 0;
  if (path[0] == '/') partial = "/";
  while (start < path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    if (slash > start) {
      partial.append(path, start, slash - start);
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return ErrnoStatus("mkdir", partial);
      }
      partial.push_back('/');
    }
    start = slash + 1;
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return ErrnoStatus("opendir", path);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink", path);
  }
  return Status::OK();
}

}  // namespace autoglobe
