// Status-returning POSIX file helpers for the storage layer: whole-file
// reads, positioned reads of a regular file (ReadOnlyFile), gathered
// writes, the crash-safe atomic write protocol (temp file in the target
// directory -> fsync -> rename -> fsync directory), and the directory
// operations generation management needs. No exceptions, no aborts: every
// syscall failure surfaces as a Status (kNotFound for missing paths,
// kDataLoss for a file that is not what a store may hold, kInternal for
// other OS errors), so a full disk or yanked mount degrades into an error
// the caller can recover from.
#ifndef TIEBREAK_UTIL_FILE_IO_H_
#define TIEBREAK_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace tiebreak {

/// Reads the whole file into a string, straight into the result buffer
/// (sized from fstat; no bounce copy). Any file type is read to its end,
/// so program text can come from a pipe; store files go through
/// ReadOnlyFile instead. kNotFound when the path does not exist; kInternal
/// on other I/O errors.
Result<std::string> ReadFileToString(const std::string& path);

/// A regular file opened for positioned reads (pread), sized once by
/// fstat. The open never blocks — O_NONBLOCK keeps a FIFO from waiting
/// for a writer — and anything that is not a regular file (FIFO, device,
/// socket, directory) is refused, so hostile directory contents can
/// neither hang a reader nor feed it without end. Move-only; the
/// descriptor closes on destruction.
class ReadOnlyFile {
 public:
  /// Opens `path`, following symlinks. kNotFound when it does not exist,
  /// kDataLoss when it is not a regular file, kInternal on other errors.
  static Result<ReadOnlyFile> Open(const std::string& path);

  /// Takes over `other`'s descriptor; `other` is left closed.
  ReadOnlyFile(ReadOnlyFile&& other) noexcept;
  /// Closes this descriptor and takes over `other`'s.
  ReadOnlyFile& operator=(ReadOnlyFile&& other) noexcept;
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;
  ~ReadOnlyFile();

  /// Length in bytes, as fstat reported it at open.
  uint64_t size() const { return size_; }

  /// Reads exactly `length` bytes at `offset` into `dst`, retrying short
  /// reads and EINTR. kDataLoss when the file ends first (it shrank since
  /// the open), kInternal on other read errors.
  Status ReadAt(uint64_t offset, char* dst, size_t length) const;

  /// The whole file: size() bytes read from offset 0.
  Result<std::string> ReadAll() const;

 private:
  ReadOnlyFile(int fd, uint64_t size, std::string path);

  int fd_ = -1;
  uint64_t size_ = 0;
  std::string path_;  // for messages
};

/// Writes `bytes` to `path` crash-safely: the data lands in a temporary
/// file in the same directory, is fsync'd, renamed over `path`, and the
/// directory is fsync'd — after a crash at any point, `path` holds either
/// the complete old content or the complete new content, never a torn mix.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

/// WriteFileAtomic of the concatenation of `pieces`, written from where
/// they lie (see the gathered WriteFileDurable).
Status WriteFileAtomic(const std::string& path,
                       Span<std::string_view> pieces);

/// Plain write + fsync (no rename). Used inside a staging directory whose
/// atomic publish happens at the directory level.
Status WriteFileDurable(const std::string& path, std::string_view bytes);

/// WriteFileDurable of the concatenation of `pieces`, without building
/// it: writev hands the kernel up to IOV_MAX pieces per call, straight
/// from the caller's memory, retrying short writes and EINTR, then fsync.
/// Empty pieces are skipped.
Status WriteFileDurable(const std::string& path,
                        Span<std::string_view> pieces);

/// Creates a directory (parents must exist). OK if it already exists.
Status CreateDir(const std::string& path);

/// Atomically renames `from` to `to` and fsyncs the parent directory of
/// `to` so the rename itself survives a crash.
Status RenameDurable(const std::string& from, const std::string& to);

/// Names (not paths) of the entries in `path`, excluding "." and "..",
/// sorted ascending.
Result<std::vector<std::string>> ListDir(const std::string& path);

/// True iff `path` exists (any file type).
bool PathExists(const std::string& path);

/// Size in bytes of a regular file.
Result<int64_t> FileSize(const std::string& path);

/// Recursively deletes `path` (file or directory tree). OK when the path
/// is already gone — crash-leftover cleanup calls this unconditionally.
Status RemoveAll(const std::string& path);

}  // namespace tiebreak

#endif  // TIEBREAK_UTIL_FILE_IO_H_
