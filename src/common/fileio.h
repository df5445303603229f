#ifndef AUTOGLOBE_COMMON_FILEIO_H_
#define AUTOGLOBE_COMMON_FILEIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace autoglobe {

/// Durably replaces the file at `path` with `contents`: the bytes are
/// written to a temporary sibling, fsynced, renamed over the target,
/// and the parent directory is fsynced. A crash or ENOSPC at any
/// point leaves either the complete old file or the complete new file
/// — never a torn one. Every writer that persists state a later run
/// depends on (snapshots, weight tables, bench reports, exports) must
/// go through here.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// The AtomicWriteFile protocol for a writer that produces its file
/// piece by piece: bytes go to the temporary sibling at explicit
/// offsets (and can be read back), and Commit() fsyncs it, renames it
/// over the target and fsyncs the directory. Destroying a file that
/// was not committed removes the temporary, so a writer that fails
/// halfway leaves neither a torn target nor a stray temporary.
class AtomicFile {
 public:
  static Result<AtomicFile> Create(const std::string& path);
  AtomicFile(AtomicFile&& other) noexcept;
  AtomicFile& operator=(AtomicFile&&) = delete;
  ~AtomicFile();

  Status WriteAt(uint64_t offset, std::string_view bytes);
  /// Reads exactly `n` bytes at `offset` of what was written so far.
  Status ReadAt(uint64_t offset, size_t n, char* out) const;
  Status Commit();

 private:
  AtomicFile(std::string path, std::string tmp, int fd)
      : path_(std::move(path)), tmp_(std::move(tmp)), fd_(fd) {}

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
};

/// A file opened for reads at explicit offsets; its size is taken once,
/// at Open.
class ReadOnlyFile {
 public:
  static Result<ReadOnlyFile> Open(const std::string& path);
  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile& operator=(ReadOnlyFile&&) = delete;
  ~ReadOnlyFile();

  uint64_t size() const { return size_; }
  /// Reads exactly `n` bytes at `offset`; IoError when the file ends
  /// first (it shrank since Open).
  Status ReadAt(uint64_t offset, size_t n, char* out) const;

 private:
  ReadOnlyFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
};

/// Reads the whole file into a string sized once from the file's
/// length. IoError with the errno message when the file cannot be
/// opened or read.
Result<std::string> ReadFileToString(const std::string& path);

/// Creates `path` and any missing parents (mkdir -p). OK when the
/// directory already exists.
Status MakeDirectories(const std::string& path);

/// Names of the entries in directory `path` (excluding "." / ".."),
/// sorted so callers iterate deterministically.
Result<std::vector<std::string>> ListDirectory(const std::string& path);

/// Removes a single file. OK when it does not exist.
Status RemoveFileIfExists(const std::string& path);

}  // namespace autoglobe

#endif  // AUTOGLOBE_COMMON_FILEIO_H_
